package ipt

import (
	"bytes"
	"testing"

	"exist/internal/binary"
	"exist/internal/simtime"
)

// syntheticEvents builds a deterministic mixed branch stream (TNT runs,
// indirect transfers, partial TNT tails) without needing a program walk.
func syntheticEvents(n int) []binary.BranchEvent {
	evs := make([]binary.BranchEvent, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range evs {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		ev := &evs[i]
		ev.From = 0x400000 + r%4096
		ev.To = 0x400000 + (r>>12)%4096
		if r%5 == 0 {
			if r%2 == 0 {
				ev.Kind = binary.TermIndirectCall
			} else {
				ev.Kind = binary.TermReturn
			}
		} else {
			ev.Kind = binary.TermCond
			ev.Taken = r%3 == 0
		}
	}
	return evs
}

// condEvents builds a conditional-only stream, so every packet is a TNT
// and a chain stop necessarily lands inside a run of conditionals.
func condEvents(n int) []binary.BranchEvent {
	evs := syntheticEvents(n)
	for i := range evs {
		evs[i].Kind = binary.TermCond
		evs[i].Taken = evs[i].To&1 == 0
	}
	return evs
}

// packOf builds the TNTPack the walker hands over with a batch: bit k is
// the direction of the batch's k-th conditional event. It panics if the
// batch holds more conditionals than the pack's capacity, as the walker
// never delivers such a batch.
func packOf(evs []binary.BranchEvent) *binary.TNTPack {
	var p binary.TNTPack
	for _, ev := range evs {
		if ev.Kind != binary.TermCond {
			continue
		}
		if ev.Taken {
			p.Bits[p.N>>6] |= 1 << (uint(p.N) & 63)
		}
		p.N++
	}
	return &p
}

// feedBatches hands evs to OnBranchBatch in batches of size events, each
// with its pack, as the walker's emission does.
func feedBatches(tr *Tracer, now simtime.Time, evs []binary.BranchEvent, size int) {
	for i := 0; i < len(evs); i += size {
		j := min(i+size, len(evs))
		tr.OnBranchBatch(now, evs[i:j], packOf(evs[i:j]))
	}
}

// newBatchTestTracer builds an enabled tracer over the given chain.
func newBatchTestTracer(t *testing.T, out *ToPA, ctl uint64) *Tracer {
	t.Helper()
	tr := NewTracer(0)
	if err := tr.SetOutput(out); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCtl(0, ctl|CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestOnBranchBatchEquivalence feeds the same event stream through the
// per-event path and the batched staged-output path and requires identical
// trace bytes, Stats, status bits, and ToPA accounting — including when the
// stop-mode chain overflows mid-stream, where the stored/dropped split must
// land on the same byte.
func TestOnBranchBatchEquivalence(t *testing.T) {
	mixed := syntheticEvents(20_000)
	cases := []struct {
		name  string
		evs   []binary.BranchEvent
		sizes []int
		ring  bool
		ctl   uint64
		batch int
	}{
		{"ring-large", mixed, []int{1 << 20}, true, DefaultCtl(), 128},
		{"ring-small-wraps", mixed, []int{4096, 4096}, true, DefaultCtl(), 128},
		{"stop-overflows", mixed, []int{8192}, false, DefaultCtl(), 128},
		{"stop-overflows-multiregion", mixed, []int{4096, 2048, 1024}, false, DefaultCtl(), 64},
		{"stop-no-cyc", mixed, []int{8192}, false, DefaultCtl() &^ CtlCYCEn, 128},
		{"stop-tiny-batches", mixed, []int{8192}, false, DefaultCtl(), 7},
		// The chain stops inside the only, full-sized batch.
		{"stop-one-big-batch", mixed[:128], []int{160}, false, DefaultCtl(), 128},
		// A stop inside a TNT run: the drop boundary is the event whose
		// direction completed the failing packet.
		{"stop-cond-only", condEvents(20_000), []int{777}, false, DefaultCtl(), 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newBatchTestTracer(t, NewToPA(tc.sizes, tc.ring), tc.ctl)
			got := newBatchTestTracer(t, NewToPA(tc.sizes, tc.ring), tc.ctl)
			for i := range tc.evs {
				ref.OnBranch(0, tc.evs[i])
			}
			feedBatches(got, 0, tc.evs, tc.batch)
			ref.Flush()
			got.Flush()
			if ref.Stats != got.Stats {
				t.Errorf("stats diverge:\n per-event %+v\n batched   %+v", ref.Stats, got.Stats)
			}
			if ref.Status() != got.Status() {
				t.Errorf("status = %#x, want %#x", got.Status(), ref.Status())
			}
			if ref.psbLeft != got.psbLeft {
				t.Errorf("psbLeft = %d, want %d", got.psbLeft, ref.psbLeft)
			}
			ro, go_ := ref.Output(), got.Output()
			if ro.Written() != go_.Written() || ro.Dropped() != go_.Dropped() ||
				ro.Stopped() != go_.Stopped() || ro.Wrapped() != go_.Wrapped() {
				t.Errorf("chain accounting diverges: per-event written=%d dropped=%d stopped=%v wrapped=%v, batched written=%d dropped=%d stopped=%v wrapped=%v",
					ro.Written(), ro.Dropped(), ro.Stopped(), ro.Wrapped(),
					go_.Written(), go_.Dropped(), go_.Stopped(), go_.Wrapped())
			}
			if !bytes.Equal(ro.Bytes(), go_.Bytes()) {
				t.Errorf("trace bytes diverge (len %d vs %d)", len(ro.Bytes()), len(go_.Bytes()))
			}
			if tc.ring && go_.Stopped() {
				t.Error("ring chain stopped")
			}
			if !tc.ring && !go_.Stopped() {
				t.Error("stop chain did not overflow; case exercises nothing")
			}
		})
	}
}

// TestOnBranchBatchInterleavedControl checks that batches interleaved with
// context switches and trace disables stay equivalent to the per-event
// path: staged state must not leak across control operations.
func TestOnBranchBatchInterleavedControl(t *testing.T) {
	evs := syntheticEvents(6_000)
	const cr3 = 0x5000
	build := func() *Tracer {
		tr := NewTracer(0)
		if err := tr.SetOutput(NewToPA([]int{1 << 16}, true)); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetCR3Match(cr3); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteCtl(0, DefaultCtl()|CtlTraceEn); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref, got := build(), build()
	drive := func(tr *Tracer, emit func(now simtime.Time, chunk []binary.BranchEvent)) {
		now := simtime.Time(0)
		for i := 0; i < len(evs); i += 500 {
			j := i + 500
			if j > len(evs) {
				j = len(evs)
			}
			switch (i / 500) % 3 {
			case 0:
				tr.ContextSwitch(now, cr3, evs[i].From) // filtered in
			case 1:
				tr.ContextSwitch(now, 0x9999, evs[i].From) // filtered out
			case 2:
				tr.ContextSwitch(now, cr3, evs[i].From)
			}
			emit(now, evs[i:j])
			now += 1000
		}
	}
	drive(ref, func(now simtime.Time, chunk []binary.BranchEvent) {
		for i := range chunk {
			ref.OnBranch(now, chunk[i])
		}
	})
	drive(got, func(now simtime.Time, chunk []binary.BranchEvent) {
		feedBatches(got, now, chunk, 128)
	})
	ref.Flush()
	got.Flush()
	if ref.Stats != got.Stats {
		t.Errorf("stats diverge:\n per-event %+v\n batched   %+v", ref.Stats, got.Stats)
	}
	if !bytes.Equal(ref.Output().Bytes(), got.Output().Bytes()) {
		t.Error("trace bytes diverge")
	}
	if got.Stats.FilteredEvents == 0 {
		t.Error("no events filtered; case exercises nothing")
	}
}

// TestOnBulkBranchesAcceptedBytes is the regression test for bulk-burst
// byte accounting: when the stop-mode chain fills mid-burst, Stats.Bytes
// must count only the accepted prefix (matching the chain's Written), not
// the whole burst, mirroring the proportional DroppedEvents attribution.
func TestOnBulkBranchesAcceptedBytes(t *testing.T) {
	tr := newBatchTestTracer(t, NewToPA([]int{4096}, false), DefaultCtl())
	header := tr.Stats.Bytes // PSB+ group and PGE from enabling
	written := tr.Output().Written()

	// A burst far larger than the remaining space: 30000 conditional +
	// 3000 indirect events.
	tr.OnBulkBranches(0, 30_000, 3_000)

	if !tr.Output().Stopped() {
		t.Fatal("chain should have stopped mid-burst")
	}
	acceptedChain := tr.Output().Written() - written
	acceptedStats := tr.Stats.Bytes - header
	if acceptedStats != acceptedChain {
		t.Errorf("Stats.Bytes counted %d burst bytes, chain accepted %d", acceptedStats, acceptedChain)
	}
	if tr.Stats.DroppedEvents == 0 {
		t.Error("expected proportional DroppedEvents attribution")
	}
	perInd := int64(8) // TIP + CYC under DefaultCtl
	total := (30_000+5)/6 + 3_000*perInd
	lost := total - acceptedChain
	wantDropped := (30_000 + 3_000) * lost / total
	if tr.Stats.DroppedEvents != wantDropped {
		t.Errorf("DroppedEvents = %d, want %d", tr.Stats.DroppedEvents, wantDropped)
	}

	// A second burst on a stopped chain is dropped whole and adds no bytes.
	before := tr.Stats
	tr.OnBulkBranches(0, 600, 60)
	if tr.Stats.Bytes != before.Bytes || tr.Stats.Packets != before.Packets {
		t.Error("stopped chain must accept no burst bytes or packets")
	}
	if tr.Stats.DroppedEvents != before.DroppedEvents+660 {
		t.Errorf("DroppedEvents = %d, want %d", tr.Stats.DroppedEvents, before.DroppedEvents+660)
	}
}

// TestWriteZerosEquivalence checks the zero-fill fast path against literal
// zero writes: identical bytes, counters, and status across region splits,
// ring wraps, and the stop transition — interleaved with real payload so
// run bookkeeping is exercised on both sides of the fill.
func TestWriteZerosEquivalence(t *testing.T) {
	shapes := []struct {
		name  string
		sizes []int
		ring  bool
	}{
		{"stop-multi", []int{300, 200, 100}, false},
		{"ring-multi", []int{256, 128}, true},
		{"stop-single", []int{1000}, false},
	}
	zeros := make([]byte, 1<<13)
	payload := []byte{0x02, 0x82, 0x02, 0x82, 0x99, 0x01} // arbitrary marker bytes
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref := NewToPA(sh.sizes, sh.ring)
			got := NewToPA(sh.sizes, sh.ring)
			steps := []int64{17, 1, 250, 4096, 0, 333, 77, 5000}
			for si, n := range steps {
				okRef := ref.Write(zeros[:n])
				okGot := got.WriteZeros(n)
				if okRef != okGot {
					t.Fatalf("step %d: Write=%v WriteZeros=%v", si, okRef, okGot)
				}
				ref.Write(payload)
				got.Write(payload)
			}
			if ref.Written() != got.Written() || ref.Dropped() != got.Dropped() ||
				ref.Used() != got.Used() || ref.Stopped() != got.Stopped() || ref.Wrapped() != got.Wrapped() {
				t.Fatalf("counters diverge: ref written=%d dropped=%d used=%d stopped=%v wrapped=%v, got written=%d dropped=%d used=%d stopped=%v wrapped=%v",
					ref.Written(), ref.Dropped(), ref.Used(), ref.Stopped(), ref.Wrapped(),
					got.Written(), got.Dropped(), got.Used(), got.Stopped(), got.Wrapped())
			}
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatal("stored bytes diverge")
			}
		})
	}
}
