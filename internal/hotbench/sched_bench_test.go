package hotbench

import (
	"testing"
)

// TestSchedWindowAllocs pins the steady-state allocation rate of the
// segment loop. Batched emission means segments allocate no closure,
// detached events are recycled, and run queues keep their capacity, so a
// warm window allocates nothing; the bound leaves a little slack, and a
// regression back to per-segment or per-enqueue allocation trips it.
func TestSchedWindowAllocs(t *testing.T) {
	s := NewSchedBench(1)
	for i := 0; i < 4; i++ {
		s.RunWindow() // warm buffer pools and slice capacities
	}
	avg := testing.AllocsPerRun(8, func() { s.RunWindow() })
	if avg > 8 {
		t.Fatalf("sched window allocates too much: %.1f allocs/run (want <= 8)", avg)
	}
}

// BenchmarkSchedHot measures the walker segment loop end to end: the
// scheduler dispatching oversubscribed walker threads, the per-branch
// pipeline into the enabled core tracers, and the event-queue traffic the
// segments generate. One op is one 2 ms virtual window on the canned
// 4-core machine.
func BenchmarkSchedHot(b *testing.B) {
	s := NewSchedBench(1)
	bytes := s.RunWindow() // warm up pools and measure nominal volume
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunWindow()
	}
}

// BenchmarkTracerHot measures the tracer ingestion path on recorded
// walker batches (events plus packed TNT directions): batched TNT/TIP
// encoding plus staged packet output into a ring ToPA.
func BenchmarkTracerHot(b *testing.B) {
	prog := Program(1)
	batches := Events(prog, 1, 2_000_000)
	tr := NewHotTracer(1 << 20)
	b.SetBytes(TracerHotOnce(tr, batches))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TracerHotOnce(tr, batches)
	}
}
