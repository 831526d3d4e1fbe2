package simtime_test

import (
	"testing"

	"exist/internal/hotbench"
	"exist/internal/simtime"
)

// BenchmarkEngineSameInstant measures the fleet's timer shape: 100k
// in-phase detached heartbeats every 200 ms over 100k far-future timers.
// One op is one period, so every beat fires and re-arms once. It is the
// engine_hot row of existbench -benchjson.
func BenchmarkEngineSameInstant(b *testing.B) {
	eb := hotbench.NewEngineBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb.RunPeriod()
	}
}

// BenchmarkEngineChain measures a machine node's chained traffic: eight
// cores each popping a segment end and pushing the next, dispatches at the
// current instant, and a few dozen wake timers. One op is 10 ms of
// simulated time. It is the engine_chain row of existbench -benchjson.
func BenchmarkEngineChain(b *testing.B) {
	cb := hotbench.NewChainBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.RunWindow()
	}
}

// BenchmarkEngineDistinct measures node-shaped traffic, where almost no
// two timers share an instant: 256 detached timers each re-arm at a
// pseudo-random offset. One op is one Step.
func BenchmarkEngineDistinct(b *testing.B) {
	e := simtime.NewEngine()
	x := uint64(0x9e3779b97f4a7c15)
	var tick func(simtime.Time)
	tick = func(simtime.Time) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.AfterDetached(1+simtime.Duration(x%(100*uint64(simtime.Microsecond))), tick)
	}
	for i := 0; i < 256; i++ {
		tick(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
