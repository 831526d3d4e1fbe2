package hotbench

import (
	"bytes"
	"testing"

	"exist/internal/trace"
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

// TestMarshalFixtureCompression pins the headline size win on the real
// fixture: packed v2 must be at least 3x smaller than the v1-equivalent
// size.
func TestMarshalFixtureCompression(t *testing.T) {
	prog := Program(1)
	s := Session(prog, 1, 4_000_000)
	v1 := trace.V1Size(s)
	v2 := s.Marshal()
	if got, err := trace.UnmarshalSession(v2); err != nil {
		t.Fatal(err)
	} else {
		for i := range s.Cores {
			if !bytes.Equal(got.Cores[i].Data, s.Cores[i].Data) {
				t.Fatalf("core %d roundtrip mismatch", i)
			}
		}
	}
	ratio := float64(v1) / float64(len(v2))
	if ratio < 3 {
		t.Fatalf("compression ratio %.2fx < 3x (v1 %d, v2 %d)", ratio, v1, len(v2))
	}
}
