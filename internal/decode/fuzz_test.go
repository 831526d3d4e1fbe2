package decode

import (
	"strings"
	"testing"

	"exist/internal/binary"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/trace"
)

// fuzzProgram is a fixed thirteen-block program with every terminator
// kind, memory operations for the profiles, one silent cycle (blocks 7
// and 8) that a decoder entering it can only leave through the
// silent-walk cap, and one conditional loop (blocks 11 and 12) that
// consumes any number of TNT bits.
func fuzzProgram() *binary.Program {
	cond := func(taken, fall binary.BlockID) binary.Block {
		return binary.Block{Term: binary.TermCond, Taken: taken, Fall: fall, TakenProb: 0.5}
	}
	blocks := []binary.Block{
		cond(2, 1),
		{Term: binary.TermFall, Fall: 3},
		{Term: binary.TermIndirectCall, Fall: 3, Targets: []binary.BlockID{5, 9}, TargetW: []float32{1, 1}},
		{Term: binary.TermJump, Taken: 4},
		{Term: binary.TermReturn},
		{Term: binary.TermCall, Taken: 9, Fall: 6},
		{Term: binary.TermIndirectJump, Targets: []binary.BlockID{0, 4}, TargetW: []float32{1, 1}},
		{Term: binary.TermFall, Fall: 8},
		{Term: binary.TermJump, Taken: 7},
		{Term: binary.TermSyscall, Fall: 10},
		{Term: binary.TermReturn},
		cond(11, 12),
		{Term: binary.TermJump, Taken: 11},
	}
	funcOf := []int32{0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	for i := range blocks {
		b := &blocks[i]
		b.Addr = 0x1000 + uint64(i)*16
		b.Insns, b.Cycles = 3, 4
		b.Func = funcOf[i]
		b.MemOps[i%binary.NumMemClasses][i%4] = uint16(i + 1)
	}
	prog := &binary.Program{
		Name: "fuzz", Blocks: blocks, Entry: 0, TextBase: 0x1000, TextSize: 16 * uint64(len(blocks)),
		Funcs: []binary.Func{
			{Name: "main", Entry: 0},
			{Name: "worker", Entry: 5, Category: binary.CatMemCopy},
			{Name: "spin", Entry: 7, Category: binary.CatSyncSpinlock},
			{Name: "sys", Entry: 9, Category: binary.CatKernelNet},
			{Name: "loop", Entry: 11},
		},
	}
	if err := prog.Validate(); err != nil {
		panic(err)
	}
	return prog
}

// fuzzWalk is a well-formed fuzzProgram stream: every terminator kind,
// a PTWRITE, and no silent cycle.
func fuzzWalk(prog *binary.Program) []byte {
	addr := func(id binary.BlockID) uint64 { return prog.Blocks[id].Addr }
	var b []byte
	b = ipt.AppendPSB(b)
	b = ipt.AppendPSBEND(b)
	b = ipt.AppendTSC(b, 150)
	b = ipt.AppendTIP(b, ipt.PktTIPPGE, addr(0))
	b = ipt.AppendTNT(b, 1, 1)                // block 0 taken → 2
	b = ipt.AppendTIP(b, ipt.PktTIP, addr(5)) // 2 calls 5; 5 → 9 → 10
	b = ipt.AppendTIP(b, ipt.PktTIP, addr(6)) // 10 returns to 6
	b = ipt.AppendTIP(b, ipt.PktTIP, addr(0)) // 6 jumps to 0
	b = ipt.AppendTNT(b, 0, 1)                // 0 not taken → 1 → 3 → 4
	b = ipt.AppendPTW(b, 42)
	b = ipt.AppendTIP(b, ipt.PktTIP, addr(3)) // 4 returns to 3 → 4
	return ipt.AppendTIP(b, ipt.PktTIPPGD, 0)
}

// fuzzCycle enters fuzzProgram's silent cycle with a TIP.PGE and sends
// the decoder around it with a TNT bit until the cap, then replays
// fuzzWalk.
func fuzzCycle(prog *binary.Program) []byte {
	var b []byte
	b = ipt.AppendTSC(b, 20)
	b = ipt.AppendTIP(b, ipt.PktTIPPGE, prog.Blocks[7].Addr)
	b = ipt.AppendTNT(b, 1, 1)
	return append(b, fuzzWalk(prog)...)
}

// fuzzDense enters fuzzProgram's conditional loop and feeds it n short
// TNT packets of six bits (taken, not taken, alternating): six events
// per packet byte, ten times what a core's arena window holds.
func fuzzDense(prog *binary.Program, n int) []byte {
	var b []byte
	b = ipt.AppendTSC(b, 10)
	b = ipt.AppendTIP(b, ipt.PktTIPPGE, prog.Blocks[11].Addr)
	for i := 0; i < n; i++ {
		b = ipt.AppendTNT(b, 0b010101, 6)
	}
	return b
}

// TestArenaSpill decodes a stream denser than its arena window next to
// an ordinary one: when ByThread keeps the events, the dense core spills,
// the arena is rebuilt exactly, and the streams, directions and a
// two-worker decode all still agree.
func TestArenaSpill(t *testing.T) {
	prog := fuzzProgram()
	sess := &trace.Session{Scale: 1, Cores: []trace.CoreTrace{
		{Core: 0, Data: fuzzWalk(prog)},
		{Core: 1, Data: fuzzDense(prog, 64)},
	}}
	res := decodeSession(sess, prog, 1)
	if len(res.Errors) != 0 || res.Events != 6+64*6 {
		t.Fatalf("decoded %d events, errors %q; want %d", res.Events, res.Errors, 6+64*6)
	}
	if _, ev := decodeCores(&res.src, true); len(ev.arena) != int(res.Events) {
		t.Fatalf("arena holds %d steps for %d events: no exact rebuild after the spill", len(ev.arena), res.Events)
	}
	if digest(decodeSession(sess, prog, 2)) != digest(res) {
		t.Fatal("two-worker decode diverged from one worker after a spill")
	}
	var n, taken int
	for _, evs := range res.ByThread() {
		for _, ev := range evs {
			n++
			if ev.Block == 11 && ev.Taken {
				if ev.Target != 11 {
					t.Fatalf("taken loop branch targets %d", ev.Target)
				}
				taken++
			}
		}
	}
	if n != int(res.Events) || taken != 64*3 {
		t.Fatalf("streams hold %d events with %d taken loop branches; want %d and %d", n, taken, res.Events, 64*3)
	}
}

// TestFuzzSeeds checks what the fuzz seeds exercise: the walk decodes
// cleanly through every terminator kind, and the cycle trips the
// silent-walk cap after exactly silentWalkCap block visits.
func TestFuzzSeeds(t *testing.T) {
	prog := fuzzProgram()
	walk := DecodeStream(prog, nil, 0, fuzzWalk(prog))
	if len(walk.Errors) != 0 || walk.Events != 6 || len(walk.PTWrites) != 1 || walk.FuncEntries[1] != 1 {
		t.Fatalf("walk: %d events, errors %q, ptwrites %v, entries %v",
			walk.Events, walk.Errors, walk.PTWrites, walk.FuncEntries)
	}
	cycle := DecodeStream(prog, nil, 0, fuzzCycle(prog))
	if len(cycle.Errors) != 1 || !strings.Contains(cycle.Errors[0], "did not converge") {
		t.Fatalf("cycle errors %q, want one non-convergence", cycle.Errors)
	}
	if cycle.Blocks != walk.Blocks+silentWalkCap {
		t.Fatalf("cycle visited %d blocks, want %d", cycle.Blocks, walk.Blocks+silentWalkCap)
	}
}

// fuzzSeed is one FuzzDecodeStream input.
type fuzzSeed struct {
	data  []byte
	split uint16
	flags uint8
}

// fuzzSeeds are FuzzDecodeStream's seed corpus: a clean walk split
// mid-stream, the walk on one core with both buffers wrapped, the silent
// cycle, and a dense stream that spills next to the walk.
func fuzzSeeds(prog *binary.Program) []fuzzSeed {
	walk, cycle, dense := fuzzWalk(prog), fuzzCycle(prog), fuzzDense(prog, 16)
	return []fuzzSeed{
		{walk, uint16(len(walk) / 2), 0},
		{walk, uint16(len(walk)), 3},
		{cycle, uint16(len(cycle) / 3), 0},
		{append(dense, walk...), uint16(len(dense)), 0},
	}
}

// fuzzSession splits data over two cores (split picks the cut; flags
// bits 0 and 1 mark either core's buffer as a wrapped ring) with a fixed
// sidecar.
func fuzzSession(data []byte, split uint16, flags uint8) *trace.Session {
	k := int(split) % (len(data) + 1)
	sess := &trace.Session{Scale: 1, Cores: []trace.CoreTrace{
		{Core: 0, Data: data[:k], Wrapped: flags&1 != 0},
		{Core: 1, Data: data[k:], Wrapped: flags&2 != 0},
	}}
	sess.Switches.Add(kernel.SwitchRecord{TS: 0, CPU: 0, PID: 1, TID: 1, Op: kernel.OpIn})
	sess.Switches.Add(kernel.SwitchRecord{TS: 0, CPU: 1, PID: 1, TID: 2, Op: kernel.OpIn})
	sess.Switches.Add(kernel.SwitchRecord{TS: 100, CPU: 0, PID: 1, TID: 3, Op: kernel.OpIn})
	sess.Switches.Add(kernel.SwitchRecord{TS: 100, CPU: 1, PID: 1, TID: 1, Op: kernel.OpIn})
	return sess
}

// FuzzDecodeStream decodes arbitrary packet bytes against fuzzProgram as
// a fuzzSession. Decoding must not panic and must terminate, a decode on
// one worker and on two must agree on every aggregate and every thread
// stream, and Events must be the streams' total length.
//
// Run with: go test -fuzz=FuzzDecodeStream ./internal/decode
func FuzzDecodeStream(f *testing.F) {
	prog := fuzzProgram()
	for _, s := range fuzzSeeds(prog) {
		f.Add(s.data, s.split, s.flags)
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16, flags uint8) {
		sess := fuzzSession(data, split, flags)
		want := decodeSession(sess, prog, 1)
		got := decodeSession(sess, prog, 2)
		if digest(got) != digest(want) {
			t.Fatalf("two-worker decode diverged from one worker: %d vs %d events, errors %q vs %q",
				got.Events, want.Events, got.Errors, want.Errors)
		}
		if n := streamLen(want.ByThread()); n != want.Events {
			t.Fatalf("decoded %d events, streams hold %d", want.Events, n)
		}
		if want.BytesDecoded > int64(len(data)) {
			t.Fatalf("decoded %d bytes of %d", want.BytesDecoded, len(data))
		}
	})
}
