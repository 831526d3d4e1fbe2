package binary

import (
	"slices"
	"testing"
	"testing/quick"

	"exist/internal/xrand"
)

func testProgram(t testing.TB, seed uint64) *Program {
	t.Helper()
	p := Synthesize(DefaultSpec("testprog", seed))
	if err := p.Validate(); err != nil {
		t.Fatalf("synthesized program invalid: %v", err)
	}
	return p
}

func TestSynthesizeValid(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		testProgram(t, seed)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(DefaultSpec("d", 7))
	b := Synthesize(DefaultSpec("d", 7))
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Blocks {
		if a.Blocks[i].Addr != b.Blocks[i].Addr || a.Blocks[i].Term != b.Blocks[i].Term ||
			a.Blocks[i].Cycles != b.Blocks[i].Cycles {
			t.Fatalf("block %d differs between identical syntheses", i)
		}
	}
}

func TestSynthesizeSeedsDiffer(t *testing.T) {
	a := Synthesize(DefaultSpec("d", 1))
	b := Synthesize(DefaultSpec("d", 2))
	if len(a.Blocks) == len(b.Blocks) {
		same := true
		for i := range a.Blocks {
			if a.Blocks[i].Term != b.Blocks[i].Term || a.Blocks[i].Cycles != b.Blocks[i].Cycles {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical programs")
		}
	}
}

func TestBlockAt(t *testing.T) {
	p := testProgram(t, 3)
	for i := range p.Blocks {
		id, ok := p.BlockAt(p.Blocks[i].Addr)
		if !ok || id != BlockID(i) {
			t.Fatalf("BlockAt(%#x) = %d,%v want %d", p.Blocks[i].Addr, id, ok, i)
		}
	}
	if _, ok := p.BlockAt(0xdeadbeef); ok {
		t.Fatal("BlockAt resolved a bogus address")
	}
}

// eventLog is a BranchSink that keeps a copy of every event.
type eventLog struct{ evs []BranchEvent }

func (l *eventLog) EmitBranches(evs []BranchEvent, _ *TNTPack) { l.evs = append(l.evs, evs...) }

// eventFunc is a BranchSink that calls f once per event.
type eventFunc func(BranchEvent)

func (f eventFunc) EmitBranches(evs []BranchEvent, _ *TNTPack) {
	for _, e := range evs {
		f(e)
	}
}

// TestWalkerDeterminism checks that one seed is one walk: two traced runs
// emit the same events, Count.Branches counts exactly the events the sink
// received, and an untraced run (nil sink) ends in the same state as a
// traced one, so the scheduler may install a sink only when something
// listens.
func TestWalkerDeterminism(t *testing.T) {
	p := testProgram(t, 4)
	run := func(sink BranchSink) *Walker {
		w := NewWalker(p, xrand.New(99))
		for i := 0; i < 50; i++ {
			w.RunBatch(10_000, sink)
		}
		return w
	}
	var a, b eventLog
	wa := run(&a)
	run(&b)
	if len(a.evs) == 0 {
		t.Fatal("walker produced no branch events")
	}
	if !slices.Equal(a.evs, b.evs) {
		t.Fatalf("traced runs differ: %d vs %d events", len(a.evs), len(b.evs))
	}
	if wa.Count.Branches != int64(len(a.evs)) {
		t.Fatalf("Count.Branches = %d, sink received %d events", wa.Count.Branches, len(a.evs))
	}

	wn := run(nil)
	if wn.cur != wa.cur || wn.Count != wa.Count || !slices.Equal(wn.stack, wa.stack) {
		t.Fatalf("untraced walk ends at block %d %+v, traced at %d %+v", wn.cur, wn.Count, wa.cur, wa.Count)
	}
	var na, nn eventLog
	wa.RunBatch(10_000, &na)
	wn.RunBatch(10_000, &nn)
	if len(na.evs) == 0 || !slices.Equal(na.evs, nn.evs) {
		t.Fatalf("next events after traced and untraced walks differ: %d vs %d", len(na.evs), len(nn.evs))
	}
}

// packChecker is a BranchSink that checks every batch against the pack
// contract: a non-empty batch of at most branchBatchSize events whose
// pack holds exactly its conditionals' directions, in order, and no
// stale bits past them.
type packChecker struct {
	t               *testing.T
	batches, events int
	full            int // batches of exactly branchBatchSize events
}

func (c *packChecker) EmitBranches(evs []BranchEvent, tnt *TNTPack) {
	if len(evs) == 0 || len(evs) > branchBatchSize {
		c.t.Fatalf("batch %d holds %d events, want 1..%d", c.batches, len(evs), branchBatchSize)
	}
	k := 0
	for i, e := range evs {
		if e.Kind != TermCond {
			continue
		}
		if bit := tnt.Bits[k>>6]>>(uint(k)&63)&1 == 1; bit != e.Taken {
			c.t.Fatalf("batch %d: pack bit %d = %v, event %d (conditional %d) Taken = %v",
				c.batches, k, bit, i, k, e.Taken)
		}
		k++
	}
	if tnt.N != k {
		c.t.Fatalf("batch %d: pack N = %d, batch has %d conditionals", c.batches, tnt.N, k)
	}
	for b := k; b < len(tnt.Bits)*64; b++ {
		if tnt.Bits[b>>6]>>(uint(b)&63)&1 != 0 {
			c.t.Fatalf("batch %d: stale pack bit %d set past N = %d", c.batches, b, k)
		}
	}
	c.batches++
	c.events += len(evs)
	if len(evs) == branchBatchSize {
		c.full++
	}
}

// TestWalkerPackContract checks the walker's own batches and packs, over
// budgets that end segments both mid-batch and across several full
// batches, on a syscall-heavy program so segments also end at syscalls.
func TestWalkerPackContract(t *testing.T) {
	spec := DefaultSpec("pack", 13)
	spec.SyscallFrac = 0.05
	p := Synthesize(spec)
	w := NewWalker(p, xrand.New(7))
	c := &packChecker{t: t}
	stops := 0
	for i := 0; i < 200; i++ {
		budget := int64(500)
		if i%4 == 0 {
			budget = 200_000
		}
		if _, reason, _ := w.RunBatch(budget, c); reason == StopSyscall {
			stops++
		}
	}
	if c.full == 0 || c.batches == c.full || stops == 0 {
		t.Fatalf("walk did not cover full batches, partial batches and syscall stops: %d full of %d, %d syscall stops",
			c.full, c.batches, stops)
	}
	if w.Count.Branches != int64(c.events) {
		t.Fatalf("Count.Branches = %d, sink received %d events", w.Count.Branches, c.events)
	}
}

func TestWalkerEventsFollowCFG(t *testing.T) {
	p := testProgram(t, 5)
	w := NewWalker(p, xrand.New(1))
	seen := 0
	emit := eventFunc(func(e BranchEvent) {
		seen++
		b := &p.Blocks[e.Block]
		switch e.Kind {
		case TermCond:
			want := b.Fall
			if e.Taken {
				want = b.Taken
			}
			if e.Target != want {
				t.Fatalf("cond event target %d, want %d", e.Target, want)
			}
		case TermIndirectJump, TermIndirectCall:
			found := false
			for _, cand := range b.Targets {
				if cand == e.Target {
					found = true
				}
			}
			if !found {
				t.Fatalf("indirect event target %d not in candidate set", e.Target)
			}
		}
		if e.To != p.Blocks[e.Target].Addr {
			t.Fatalf("event To=%#x but target block addr=%#x", e.To, p.Blocks[e.Target].Addr)
		}
	})
	for i := 0; i < 20; i++ {
		w.RunBatch(5_000, emit)
	}
	if seen == 0 {
		t.Fatal("no events observed")
	}
}

func TestWalkerCycleAccounting(t *testing.T) {
	p := testProgram(t, 6)
	w := NewWalker(p, xrand.New(2))
	var total int64
	for i := 0; i < 100; i++ {
		used, reason, _ := w.RunBatch(1_000, nil)
		if used <= 0 {
			t.Fatalf("run %d consumed %d cycles", i, used)
		}
		if reason == StopBudget && used < 1_000 {
			t.Fatalf("budget stop with only %d/1000 cycles used", used)
		}
		total += used
	}
	if w.Count.Cycles != total {
		t.Fatalf("counter cycles %d != summed %d", w.Count.Cycles, total)
	}
	if w.Count.Insns <= 0 || w.Count.Branches <= 0 {
		t.Fatalf("counters not accumulating: %+v", w.Count)
	}
}

func TestWalkerSyscallStops(t *testing.T) {
	spec := DefaultSpec("sys", 7)
	spec.SyscallFrac = 0.25 // very syscall-heavy
	spec.SyscallClassWeights = []float64{1, 2, 3}
	p := Synthesize(spec)
	w := NewWalker(p, xrand.New(3))
	sawSyscall := false
	for i := 0; i < 200 && !sawSyscall; i++ {
		_, reason, class := w.RunBatch(1_000_000, nil)
		if reason == StopSyscall {
			sawSyscall = true
			if class > 2 {
				t.Fatalf("syscall class %d out of weight range", class)
			}
		}
	}
	if !sawSyscall {
		t.Fatal("syscall-heavy program never reached a syscall")
	}
}

func TestBranchPerKCycle(t *testing.T) {
	// Hand count: two PT-visible terminators (jcc, ret) over 100 cycles;
	// the jmp and the syscall produce no packet.
	hand := &Program{Blocks: []Block{
		{Term: TermCond, Cycles: 10},
		{Term: TermJump, Cycles: 20},
		{Term: TermReturn, Cycles: 30},
		{Term: TermSyscall, Cycles: 40},
	}}
	if got := hand.BranchPerKCycle(); got != 20 {
		t.Fatalf("hand program: %v events per kcycle, want 20", got)
	}
	if got := (&Program{}).BranchPerKCycle(); got != 0 {
		t.Fatalf("empty program: %v events per kcycle, want 0", got)
	}

	p := testProgram(t, 8)
	var cycles, events int64
	kinds := map[TermKind]int{}
	for _, b := range p.Blocks {
		cycles += int64(b.Cycles)
		kinds[b.Term]++
		if b.Term == TermCond || b.Term == TermIndirectJump || b.Term == TermIndirectCall || b.Term == TermReturn {
			events++
		}
	}
	for _, k := range []TermKind{TermCond, TermIndirectJump, TermIndirectCall, TermReturn, TermSyscall} {
		if kinds[k] == 0 {
			t.Fatalf("test program has no %v block", k)
		}
	}
	want := float64(events) / float64(cycles) * 1000
	if got := p.BranchPerKCycle(); got != want || got <= 0 {
		t.Fatalf("branch density %v, hand count %v", got, want)
	}
	if again := p.BranchPerKCycle(); again != want {
		t.Fatalf("second call %v, first %v", again, want)
	}
}

func TestCategoryAssignment(t *testing.T) {
	spec := DefaultSpec("cat", 9)
	spec.Funcs = 400
	spec.CategoryWeights[CatMemCopy] = 5
	spec.CategoryWeights[CatSyncMutex] = 5
	spec.CategoryWeights[CatGeneral] = 10
	p := Synthesize(spec)
	counts := map[FuncCategory]int{}
	for _, f := range p.Funcs {
		counts[f.Category]++
	}
	if counts[CatMemCopy] == 0 || counts[CatSyncMutex] == 0 {
		t.Fatalf("weighted categories missing: %v", counts)
	}
	if counts[CatKernelIRQ] != 0 {
		t.Fatalf("zero-weight category assigned: %v", counts)
	}
}

func TestMemOpsPopulated(t *testing.T) {
	p := testProgram(t, 10)
	var total int64
	for i := range p.Blocks {
		for cls := 0; cls < NumMemClasses; cls++ {
			for w := 0; w < 4; w++ {
				total += int64(p.Blocks[i].MemOps[cls][w])
			}
		}
	}
	if total == 0 {
		t.Fatal("no memory ops generated")
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	p := testProgram(t, 12)
	// Find a conditional block and corrupt its successor.
	for i := range p.Blocks {
		if p.Blocks[i].Term == TermCond {
			saved := p.Blocks[i].Taken
			p.Blocks[i].Taken = BlockID(len(p.Blocks) + 5)
			if err := p.Validate(); err == nil {
				t.Fatal("Validate accepted out-of-range successor")
			}
			p.Blocks[i].Taken = saved
			break
		}
	}
	saved := p.Entry
	p.Entry = -5
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted bad entry")
	}
	p.Entry = saved
}

func TestTermKindString(t *testing.T) {
	kinds := []TermKind{TermFall, TermCond, TermJump, TermIndirectJump,
		TermCall, TermIndirectCall, TermReturn, TermSyscall, TermKind(200)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty string for kind %d", k)
		}
	}
}

// Property: over random seeds, every synthesized program validates and a
// bounded walk is cycle-conserving and emits only valid block IDs.
func TestSynthesizeWalkProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		spec := DefaultSpec("prop", seed)
		spec.Funcs = 8 + int(seed%16)
		p := Synthesize(spec)
		if p.Validate() != nil {
			return false
		}
		w := NewWalker(p, xrand.New(seed^0xabcdef))
		ok := true
		emit := eventFunc(func(e BranchEvent) {
			if e.Block < 0 || int(e.Block) >= len(p.Blocks) ||
				e.Target < 0 || int(e.Target) >= len(p.Blocks) {
				ok = false
			}
		})
		for i := 0; i < int(steps%32)+1; i++ {
			used, _, _ := w.RunBatch(2_000, emit)
			if used <= 0 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWalkerRun(b *testing.B) {
	p := Synthesize(DefaultSpec("bench", 1))
	w := NewWalker(p, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunBatch(10_000, nil)
	}
}

func BenchmarkWalkerRunEmitting(b *testing.B) {
	p := Synthesize(DefaultSpec("bench", 1))
	w := NewWalker(p, xrand.New(1))
	sink := eventFunc(func(BranchEvent) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunBatch(10_000, sink)
	}
}
