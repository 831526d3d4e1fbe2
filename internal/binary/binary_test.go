package binary

import (
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

func TestWalkerDeterminism(t *testing.T) {
	p := testProgram(t, 4)
	run := func() []BranchEvent {
		w := NewWalker(p, xrand.New(99))
		var evs []BranchEvent
		for i := 0; i < 50; i++ {
			w.Run(10_000, func(e BranchEvent) { evs = append(evs, e) })
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("walker runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walker event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("walker produced no branch events")
	}
}

func TestWalkerEventsFollowCFG(t *testing.T) {
	p := testProgram(t, 5)
	w := NewWalker(p, xrand.New(1))
	prev := w.cur
	seen := 0
	emit := func(e BranchEvent) {
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
	}
	for i := 0; i < 20; i++ {
		w.Run(5_000, emit)
	}
	_ = prev
	if seen == 0 {
		t.Fatal("no events observed")
	}
}

func TestWalkerCycleAccounting(t *testing.T) {
	p := testProgram(t, 6)
	w := NewWalker(p, xrand.New(2))
	var total int64
	for i := 0; i < 100; i++ {
		used, reason, _ := w.Run(1_000, nil)
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
		_, reason, class := w.Run(1_000_000, nil)
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
	if w.Count.Syscalls == 0 {
		t.Fatal("syscall counter not incremented")
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

func TestFuncEntriesHistogram(t *testing.T) {
	p := testProgram(t, 11)
	w := NewWalker(p, xrand.New(4))
	for i := 0; i < 500; i++ {
		w.Run(10_000, nil)
	}
	w.settleCounters()
	if len(w.Count.FuncEntries) == 0 {
		t.Fatal("no function entries recorded")
	}
	for fn, n := range w.Count.FuncEntries {
		if fn < 0 || int(fn) >= len(p.Funcs) || n <= 0 {
			t.Fatalf("bad histogram entry %d:%d", fn, n)
		}
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
		emit := func(e BranchEvent) {
			if e.Block < 0 || int(e.Block) >= len(p.Blocks) ||
				e.Target < 0 || int(e.Target) >= len(p.Blocks) {
				ok = false
			}
		}
		for i := 0; i < int(steps%32)+1; i++ {
			used, _, _ := w.Run(2_000, emit)
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
		w.Run(10_000, nil)
	}
}

func BenchmarkWalkerRunEmitting(b *testing.B) {
	p := Synthesize(DefaultSpec("bench", 1))
	w := NewWalker(p, xrand.New(1))
	sink := func(BranchEvent) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(10_000, sink)
	}
}
