package decode

import (
	"testing"

	"exist/internal/binary"
	"exist/internal/hotbench"
	"exist/internal/kernel"
	"exist/internal/trace"
)

// workerCounts are the worker counts the decode is compared at: the
// serial path, the two cores of a small host, and more workers than most
// sessions have cores.
var workerCounts = []int{1, 2, 8}

// TestDecodeParallelMatchesSerial pins the determinism contract: every
// aggregate and every thread stream is independent of the worker count.
func TestDecodeParallelMatchesSerial(t *testing.T) {
	prog := hotbench.Program(1)
	s := hotbench.Session(prog, 1, 2_000_000)
	if len(s.Cores) < 1 {
		t.Fatal("fixture has no cores")
	}
	want := digest(Decode(s, prog))
	for _, w := range workerCounts {
		if got := digest(decodeSession(s, prog, w)); got != want {
			t.Fatalf("%d workers diverged from Decode", w)
		}
	}
}

// TestDecodeParallelMultiCore decodes sessions whose cores carry
// distinct streams on 1, 2 and 8 workers: the hotbench stream on four
// cores, and mixedSession, whose dense core spills when ByThread decodes
// it with events kept.
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
	want := decodeSession(&s, prog, 1)
	for _, w := range workerCounts[1:] {
		if digest(decodeSession(&s, prog, w)) != digest(want) {
			t.Fatalf("four-core decode on %d workers diverged from one worker", w)
		}
	}

	fp := fuzzProgram()
	mixed := mixedSession(fp)
	want = decodeSession(mixed, fp, 1)
	if _, ev := decodeCores(&want.src, true); len(want.Errors) < 3 || len(ev.arena) != int(want.Events) {
		t.Fatalf("mixed session: errors %q, %d arena steps for %d events; want errors on three cores and a spill",
			want.Errors, len(ev.arena), want.Events)
	}
	if n := streamLen(want.ByThread()); n != want.Events {
		t.Fatalf("mixed session: %d events, streams hold %d", want.Events, n)
	}
	for _, w := range workerCounts[1:] {
		got := decodeSession(mixed, fp, w)
		if digest(got) != digest(want) {
			t.Fatalf("mixed session on %d workers diverged from one worker: errors %q, want %q", w, got.Errors, want.Errors)
		}
	}
}

// mixedSession is seven cores of fuzzProgram streams that are wrapped,
// torn, spilled, or a wrapped ring with no PSB at all, each between clean
// ones so the errors of several cores interleave in core order.
func mixedSession(fp *binary.Program) *trace.Session {
	walk := fuzzWalk(fp)
	torn := append([]byte(nil), walk...)
	torn[len(torn)/2] ^= 0xff
	// A ring that wrapped: the torn tail of an earlier pass, then the walk.
	ring := append([]byte{0x55, 0x66, 0x77}, walk...)
	mixed := &trace.Session{Scale: 1, Cores: []trace.CoreTrace{
		{Core: 0, Data: walk},
		{Core: 1, Data: torn},
		{Core: 2, Data: ring, Wrapped: true},
		{Core: 3, Data: fuzzDense(fp, 64)},
		{Core: 4, Data: []byte{0x55, 0x66}, Wrapped: true},
		{Core: 5, Data: torn},
		{Core: 6, Data: walk},
	}}
	for cpu := int32(0); cpu < 7; cpu++ {
		mixed.Switches.Add(kernel.SwitchRecord{TS: 0, CPU: cpu, PID: 1, TID: 1 + cpu%3, Op: kernel.OpIn})
	}
	return mixed
}
