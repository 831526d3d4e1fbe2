package livenessbench

import "testing"

// BenchmarkNodeLiveness measures one simulated second of a warm
// 100k-node Lite fleet with no requests: heartbeats, lease checks, node
// faults and controller ticks. It is the node_liveness row of existbench
// -benchjson.
func BenchmarkNodeLiveness(b *testing.B) {
	lb := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.Second()
	}
}
