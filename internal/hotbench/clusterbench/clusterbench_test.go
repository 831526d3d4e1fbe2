package clusterbench

import (
	"fmt"
	"testing"
)

// BenchmarkClusterNodes times one scenario run at one and two node
// workers; setup is outside the timer. These are the cluster_nodes_j1 and
// cluster_nodes_j2 rows of existbench -benchjson.
func BenchmarkClusterNodes(b *testing.B) {
	for _, jobs := range []int{1, 2} {
		b.Run(fmt.Sprintf("j%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New(jobs)
				b.StartTimer()
				s.Run()
			}
		})
	}
}
