package decode

import (
	"testing"

	"exist/internal/hotbench"
)

// TestDecodeParallelMatchesSerial pins the determinism contract: every
// aggregate and every thread stream is independent of the worker count.
func TestDecodeParallelMatchesSerial(t *testing.T) {
	prog := hotbench.Program(1)
	s := hotbench.Session(prog, 1, 2_000_000)
	if len(s.Cores) < 1 {
		t.Fatal("fixture has no cores")
	}
	want := Decode(s, prog)
	for _, jobs := range []int{1, 2, 4, 8} {
		got := DecodeParallel(s, prog, jobs)
		if digest(got) != digest(want) {
			t.Fatalf("jobs=%d diverged from serial decode", jobs)
		}
	}
}

// TestDecodeParallelMultiCore exercises the concurrent path with several
// cores carrying distinct streams.
func TestDecodeParallelMultiCore(t *testing.T) {
	prog := hotbench.Program(2)
	base := hotbench.Session(prog, 2, 1_000_000)
	s := *base
	// Duplicate the stream across synthetic cores so more than one worker
	// has real work.
	for core := 1; core < 4; core++ {
		ct := base.Cores[0]
		ct.Core = core
		s.Cores = append(s.Cores, ct)
	}
	want := Decode(&s, prog)
	got := DecodeParallel(&s, prog, 4)
	if digest(got) != digest(want) {
		t.Fatal("multi-core parallel decode diverged from serial")
	}
}
