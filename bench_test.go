// Package exist_bench exposes every paper artifact as a Go benchmark:
// BenchmarkExperiments has one sub-benchmark per registered experiment
// (see the per-experiment index in DESIGN.md). Each runs the experiment
// in quick mode and reports its headline metrics; run the cmd/existbench
// tool for the full-fidelity tables.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkExperiments/fig13
package exist_bench

import (
	"testing"

	"exist/internal/experiments"
)

// BenchmarkExperiments runs every registered experiment b.N times,
// reporting its headline metrics from the final run.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			cfg := experiments.Config{Quick: true, Seed: 1}
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range res.SortedMetrics() {
				b.ReportMetric(res.Metrics[name], name)
			}
		})
	}
}
