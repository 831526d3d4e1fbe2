package binary

import "testing"

// TestBlockAtMatchesMap checks the address index against the map it
// replaced, on a synthesized program (addresses in block order) and on a
// shuffled one with shared addresses (the highest block wins), probing
// every block address, its neighbours and the range ends.
func TestBlockAtMatchesMap(t *testing.T) {
	synth := testProgram(t, 5)
	shuffled := &Program{Blocks: []Block{
		{Addr: 0x500}, {Addr: 0x100}, {Addr: 0x300}, {Addr: 0x100}, {Addr: 0x90000}, {Addr: 0x300}, {Addr: 0x104},
	}}
	for _, p := range []*Program{synth, shuffled, {}} {
		ref := make(map[uint64]BlockID)
		var probes []uint64
		for i := range p.Blocks {
			a := p.Blocks[i].Addr
			ref[a] = BlockID(i)
			probes = append(probes, a-1, a, a+1, a+4)
		}
		probes = append(probes, 0, 1<<63)
		for _, a := range probes {
			want, wok := ref[a]
			got, ok := p.BlockAt(a)
			if ok != wok || (ok && got != want) {
				t.Fatalf("BlockAt(%#x) = %d,%v; map gives %d,%v", a, got, ok, want, wok)
			}
		}
	}
}

// TestSilentEndsMatchWalk checks each block's table entry against a
// step-by-step walk of silent edges, on a synthesized program and on a
// hand-built one with a silent cycle, a tail into that cycle and an
// out-of-range successor.
func TestSilentEndsMatchWalk(t *testing.T) {
	handBuilt := &Program{Blocks: []Block{
		{Term: TermFall, Fall: 1},
		{Term: TermCall, Taken: 2, Fall: 3},
		{Term: TermCond, Taken: 0, Fall: 3},
		{Term: TermJump, Taken: 4},
		{Term: TermSyscall, Fall: 3}, // 3 → 4 → 3: a silent cycle
		{Term: TermFall, Fall: 3},    // a tail into it
		{Term: TermFall, Fall: 99},   // an out-of-range successor
		{Term: TermReturn},
	}}
	for _, p := range []*Program{testProgram(t, 6), handBuilt} {
		ends := p.SilentEnds()
		for i := range p.Blocks {
			want := NoBlock
			id := BlockID(i)
			for steps := 0; steps < len(p.Blocks)+1 && id >= 0 && int(id) < len(p.Blocks); steps++ {
				next, silent := p.Blocks[id].SilentSucc()
				if !silent {
					want = id
					break
				}
				id = next
			}
			if ends[i] != want {
				t.Fatalf("%q: SilentEnds[%d] = %d, walk gives %d", p.Name, i, ends[i], want)
			}
		}
	}
	if ends := handBuilt.SilentEnds(); ends[0] != 2 || ends[3] != NoBlock || ends[5] != NoBlock || ends[6] != NoBlock {
		t.Fatalf("hand-built ends = %v", ends)
	}
}

// TestEntryFuncOf checks the dense entry table: function entries map to
// their function (the last of several sharing one), other blocks and
// out-of-range IDs to none.
func TestEntryFuncOf(t *testing.T) {
	p := &Program{
		Blocks: make([]Block, 4),
		Funcs:  []Func{{Entry: 0}, {Entry: 2}, {Entry: 2}},
	}
	for id, want := range map[BlockID]int32{0: 0, 1: -1, 2: 2, 3: -1, -1: -1, 4: -1} {
		fn, ok := p.EntryFuncOf(id)
		if ok != (want >= 0) || (ok && fn != want) {
			t.Fatalf("EntryFuncOf(%d) = %d,%v; want %d", id, fn, ok, want)
		}
	}
}
