package simtime

import "testing"

// BenchmarkEngineScheduleFire measures the schedule→fire round trip that
// every simulated timer pays. The Detached variant should show zero
// allocs/op in steady state: fired events return to the engine's free
// list and are handed back out on the next schedule.
func BenchmarkEngineScheduleFire(b *testing.B) {
	fn := func(Time) {}
	b.Run("handle", func(b *testing.B) {
		e := NewEngine()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.After(1, fn)
			e.Step()
		}
	})
	b.Run("detached", func(b *testing.B) {
		e := NewEngine()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.AfterDetached(1, fn)
			e.Step()
		}
	})
}

// BenchmarkEngineDistinct measures node-shaped traffic, where almost no
// two timers share an instant: 256 detached timers each re-arm at a
// pseudo-random offset. One op is one Step.
func BenchmarkEngineDistinct(b *testing.B) {
	e := NewEngine()
	x := uint64(0x9e3779b97f4a7c15)
	var tick func(Time)
	tick = func(Time) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.AfterDetached(1+Duration(x%(100*uint64(Microsecond))), tick)
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

func TestDetachedEventsFireInOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.ScheduleDetached(30, func(Time) { got = append(got, 3) })
	e.ScheduleDetached(10, func(Time) { got = append(got, 1) })
	e.AfterDetached(20, func(Time) { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v", e.Now())
	}
}

func TestDetachedEventsRecycle(t *testing.T) {
	e := NewEngine()
	fired := 0
	// Schedule/fire repeatedly: after warm-up the free list should
	// satisfy every request, so the queue never grows and events
	// interleave correctly with handle-carrying ones.
	for i := 0; i < 100; i++ {
		e.AfterDetached(1, func(Time) { fired++ })
		ev := e.After(2, func(Time) {})
		e.Step()
		ev.Cancel()
	}
	if fired != 100 {
		t.Fatalf("fired %d", fired)
	}
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d events, want 1", len(e.free))
	}
}

// TestFreeListTrims checks that a burst of detached timers does not pin
// its recycled events after it drains: the free list ends no longer than
// freeFloor.
func TestFreeListTrims(t *testing.T) {
	e := NewEngine()
	const burst = 50_000
	noop := func(Time) {}
	for i := 0; i < burst; i++ {
		e.ScheduleDetached(Time(i), noop)
	}
	e.Run()
	if len(e.free) > freeFloor {
		t.Fatalf("free list holds %d events after a %d-event burst, want at most %d", len(e.free), burst, freeFloor)
	}
}

func TestDetachedRescheduleFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(Time)
	tick = func(now Time) {
		count++
		if count < 10 {
			e.AfterDetached(5, tick)
		}
	}
	e.AfterDetached(5, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("ticked %d times", count)
	}
}
