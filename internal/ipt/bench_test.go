package ipt_test

import (
	"testing"

	"exist/internal/hotbench"
)

// BenchmarkEncodeHot measures the walker→tracer encode path: batched
// emission with packed TNT directions, TNT/TIP/CYC encoding, and staged
// output into a ToPA chain.
// Run with -benchmem; allocs/op is tracked in BENCH_harness.json.
func BenchmarkEncodeHot(b *testing.B) {
	prog := hotbench.Program(2)
	const budget = 4_000_000
	bytes := hotbench.EncodeOnce(prog, 2, budget)
	if bytes == 0 {
		b.Fatal("fixture produced no trace bytes")
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hotbench.EncodeOnce(prog, 2, budget)
	}
}
