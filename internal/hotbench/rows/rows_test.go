package rows

import "testing"

// BenchmarkRows times every row of the table, one sub-benchmark per row
// (BenchmarkRows/decode_hot, ...), with the loop existbench -benchjson
// uses. A row's fixture is built on its first run, outside the timer,
// and only when the -bench pattern selects the row.
func BenchmarkRows(b *testing.B) {
	for _, row := range All() {
		var fx *Fixture
		b.Run(row.Name, func(b *testing.B) {
			if fx == nil {
				f := row.New()
				fx = &f
			}
			fx.Bench(b)
		})
	}
}
