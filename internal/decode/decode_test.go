package decode

import (
	"strings"
	"testing"

	"exist/internal/binary"
	"exist/internal/hotbench"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/metrics"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/xrand"
)

// pipeline runs a walker workload under a per-core PT tracer with a
// five-tuple hook, then returns the session, ground truth and program.
// bufBytes is the per-core buffer; threads is the thread count.
func pipeline(t *testing.T, bufBytes int, threads int, window simtime.Duration) (*trace.Session, *trace.GroundTruth, *binary.Program) {
	t.Helper()
	cfg := sched.DefaultConfig()
	cfg.Cores = 2
	cfg.HTSiblings = false
	cfg.Seed = 9
	cfg.Timeslice = 500 * simtime.Microsecond
	m := sched.NewMachine(cfg)

	prog := binary.Synthesize(binary.DefaultSpec("pipe", 3))
	p := m.AddProcess("pipe", prog, sched.CPUShare, []int{0, 1})
	for i := 0; i < threads; i++ {
		exec := sched.NewWalkerExec(prog, xrand.SplitN(77, "w", i), cfg.Cost, 1e-4)
		m.SpawnThread(p, exec)
	}

	sess := &trace.Session{
		ID: "test", Workload: "pipe", PID: int32(p.PID),
		Start: 0, End: simtime.Time(window), Scale: 1,
	}
	gt := trace.NewGroundTruth(prog, 0, simtime.Time(window))
	m.Listener = func(th *sched.Thread, now simtime.Time, ev binary.BranchEvent) {
		if th.Proc == p {
			gt.Record(int32(th.TID), now, ev)
		}
	}

	// Configure and enable both core tracers for the target process.
	for _, c := range m.Cores {
		if err := c.Tracer.SetOutput(ipt.NewSingleToPA(bufBytes)); err != nil {
			t.Fatal(err)
		}
		if err := c.Tracer.SetCR3Match(p.CR3); err != nil {
			t.Fatal(err)
		}
		if err := c.Tracer.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
			t.Fatal(err)
		}
	}
	// Five-tuple hook, as EXIST's kernel hooker records it.
	m.SwitchHooks = append(m.SwitchHooks, func(ev sched.SwitchEvent) simtime.Duration {
		if ev.Prev != nil && ev.Prev.Proc == p {
			sess.Switches.Add(kernel.SwitchRecord{TS: ev.Now, CPU: int32(ev.Core.ID),
				PID: int32(p.PID), TID: int32(ev.Prev.TID), Op: kernel.OpOut})
		}
		if ev.Next != nil && ev.Next.Proc == p {
			sess.Switches.Add(kernel.SwitchRecord{TS: ev.Now, CPU: int32(ev.Core.ID),
				PID: int32(p.PID), TID: int32(ev.Next.TID), Op: kernel.OpIn})
		}
		return cfg.Cost.SwitchRecord
	})

	m.Run(simtime.Time(window))
	for _, c := range m.Cores {
		c.Tracer.Flush()
		out := c.Tracer.Output()
		sess.Cores = append(sess.Cores, trace.CoreTrace{
			Core: c.ID, Data: out.Bytes(), Stopped: out.Stopped(), DroppedBytes: out.Dropped(),
		})
	}
	return sess, gt, prog
}

func TestLosslessReconstruction(t *testing.T) {
	sess, gt, prog := pipeline(t, 1<<22, 1, 50*simtime.Millisecond)
	res := Decode(sess, prog)
	if len(res.Errors) != 0 {
		t.Fatalf("decode errors: %v", res.Errors[:min(3, len(res.Errors))])
	}
	score := metrics.PathAccuracy(gt.ByThread, res.ByThread())
	if score.Truth == 0 {
		t.Fatal("no ground truth generated")
	}
	if score.Spurious != 0 {
		t.Fatalf("decoder invented %d events", score.Spurious)
	}
	if score.Accuracy < 0.999 {
		t.Fatalf("lossless session accuracy = %.4f (matched %d / truth %d)",
			score.Accuracy, score.Matched, score.Truth)
	}
}

func TestLossyReconstructionDegrades(t *testing.T) {
	sess, gt, prog := pipeline(t, 1<<10, 1, 50*simtime.Millisecond)
	stopped := false
	for _, c := range sess.Cores {
		if c.Stopped {
			stopped = true
		}
	}
	if !stopped {
		t.Fatal("tiny buffer did not stop")
	}
	res := Decode(sess, prog)
	score := metrics.PathAccuracy(gt.ByThread, res.ByThread())
	if score.Accuracy >= 0.9 {
		t.Fatalf("expected heavy loss, accuracy = %.4f", score.Accuracy)
	}
	if score.Spurious > score.Decoded/50 {
		t.Fatalf("losses must shrink matches, not invent events: %+v", score)
	}
}

func TestMultiThreadAttribution(t *testing.T) {
	sess, gt, prog := pipeline(t, 1<<22, 3, 50*simtime.Millisecond)
	res := Decode(sess, prog)
	score := metrics.PathAccuracy(gt.ByThread, res.ByThread())
	if score.Accuracy < 0.95 {
		t.Fatalf("multi-thread accuracy = %.4f (truth %d, matched %d, errors %d)",
			score.Accuracy, score.Truth, score.Matched, len(res.Errors))
	}
	// Every ground-truth thread should be present in the reconstruction.
	for tid := range gt.ByThread {
		if len(res.ByThread()[tid]) == 0 {
			t.Fatalf("thread %d missing from reconstruction", tid)
		}
	}
}

func TestFuncHistogramMatchesGroundTruth(t *testing.T) {
	sess, gt, prog := pipeline(t, 1<<22, 1, 50*simtime.Millisecond)
	res := Decode(sess, prog)
	acc := metrics.WeightMatch(gt.FuncEntries, res.FuncEntries)
	if acc < 0.99 {
		t.Fatalf("function histogram weight match = %.4f", acc)
	}
}

func TestCaseStudyProfilesPopulated(t *testing.T) {
	sess, _, prog := pipeline(t, 1<<22, 1, 50*simtime.Millisecond)
	res := Decode(sess, prog)
	if res.Blocks == 0 {
		t.Fatal("no blocks visited")
	}
	var mem int64
	for c := range res.MemOps {
		for w := range res.MemOps[c] {
			mem += res.MemOps[c][w]
		}
	}
	if mem == 0 {
		t.Fatal("memory-op profile empty")
	}
	if res.CatHits[binary.CatGeneral] == 0 {
		t.Fatal("category profile empty")
	}
}

func TestDecodeStreamStandalone(t *testing.T) {
	prog := binary.Synthesize(binary.DefaultSpec("lone", 4))
	// Hand-build a tiny stream: enable at entry, take one TNT path.
	tr := ipt.NewTracer(0)
	if err := tr.SetOutput(ipt.NewSingleToPA(1 << 16)); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCR3Match(0x7); err != nil {
		t.Fatal(err)
	}
	tr.ContextSwitch(0, 0x7, prog.Blocks[prog.Entry].Addr)
	if err := tr.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	w := binary.NewWalker(prog, xrand.New(5))
	var want int
	w.Run(20000, func(ev binary.BranchEvent) {
		tr.OnBranch(1, ev)
		want++
	})
	tr.Flush()
	res := DecodeStream(prog, nil, 0, tr.Output().Bytes())
	if res.Events != int64(want) {
		t.Fatalf("decoded %d events, walker emitted %d (errors: %v)", res.Events, want, res.Errors)
	}
	// Without a sidecar, events land on the unknown thread.
	if len(res.ByThread()[-1]) != want {
		t.Fatalf("events not attributed to unknown thread: %d", len(res.ByThread()[-1]))
	}
}

func TestWrappedRingDecode(t *testing.T) {
	prog := binary.Synthesize(binary.DefaultSpec("ring", 8))
	tr := ipt.NewTracer(0)
	if err := tr.SetOutput(ipt.NewToPA([]int{1 << 12}, true)); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCR3Match(0x7); err != nil {
		t.Fatal(err)
	}
	tr.ContextSwitch(0, 0x7, prog.Blocks[prog.Entry].Addr)
	if err := tr.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	w := binary.NewWalker(prog, xrand.New(6))
	for i := 0; i < 50; i++ {
		w.Run(20000, func(ev binary.BranchEvent) { tr.OnBranch(simtime.Time(i), ev) })
	}
	tr.Flush()
	out := tr.Output()
	if !out.Wrapped() {
		t.Fatal("ring did not wrap")
	}
	sess := &trace.Session{Scale: 1, Cores: []trace.CoreTrace{
		{Core: 0, Data: out.Bytes(), Wrapped: true},
	}}
	res := Decode(sess, prog)
	// A wrapped ring decodes only from the last PSB; we just require that
	// it recovers something and does not desync.
	for _, e := range res.Errors {
		if !strings.Contains(e, "truncated") {
			t.Fatalf("wrapped decode desync: %v", e)
		}
	}
}

// TestMerge pins the profile-only merge: histograms, profiles and
// counters add up, Errors and PTWrites append in order, and no
// per-thread stream is carried over.
func TestMerge(t *testing.T) {
	prog := hotbench.Program(1)
	b := Decode(hotbench.Session(prog, 1, 200_000), prog)
	if b.Events == 0 || len(b.ByThread()) == 0 {
		t.Fatal("fixture decoded no streams")
	}
	b.Errors = []string{"b"}
	b.PTWrites = []PTWrite{{TID: 2, Val: 8}}
	a := newResult()
	a.FuncEntries[3] = 2
	a.Events, a.Blocks, a.BytesDecoded, a.Resyncs = 1, 5, 7, 1
	a.CatHits[1], a.MemOps[2][3] = 4, 6
	a.Errors = []string{"a"}
	a.PTWrites = []PTWrite{{TID: 1, Val: 9}}
	a.Merge(b)
	if a.Events != 1+b.Events || a.Blocks != 5+b.Blocks || a.BytesDecoded != 7+b.BytesDecoded || a.Resyncs != 1+b.Resyncs {
		t.Fatalf("merge totals wrong: %+v", a)
	}
	if a.CatHits[1] != 4+b.CatHits[1] || a.MemOps[2][3] != 6+b.MemOps[2][3] {
		t.Fatalf("merge profiles wrong: %v %v", a.CatHits, a.MemOps)
	}
	for fn, n := range b.FuncEntries {
		want := n
		if fn == 3 {
			want += 2
		}
		if a.FuncEntries[fn] != want {
			t.Fatalf("merge histogram: func %d = %d, want %d", fn, a.FuncEntries[fn], want)
		}
	}
	if len(a.Errors) != 2 || a.Errors[1] != "b" || len(a.PTWrites) != 2 || a.PTWrites[1].Val != 8 {
		t.Fatalf("merge appends wrong: %v %v", a.Errors, a.PTWrites)
	}
	if len(a.ByThread()) != 0 {
		t.Fatalf("merge carried %d thread streams", len(a.ByThread()))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: the decoder must never panic on arbitrary bytes — torn or
// corrupt streams produce errors, not crashes.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	prog := binary.Synthesize(binary.DefaultSpec("garbage", 13))
	rng := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		n := rng.IntN(512)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.IntN(256))
		}
		sess := &trace.Session{Scale: 1, Cores: []trace.CoreTrace{{Core: 0, Data: data}}}
		res := Decode(sess, prog) // must not panic
		_ = res.Events
	}
}

// Property: corrupting a valid stream at one position yields at most a
// truncated reconstruction, never spurious panics, and the decoder's
// output stays a subsequence of the truth.
func TestDecodeBitflipRobustness(t *testing.T) {
	sess, gt, prog := pipeline(t, 1<<22, 1, 20*simtime.Millisecond)
	orig := sess.Cores[0].Data
	if len(orig) == 0 {
		t.Skip("no data on core 0")
	}
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		data := append([]byte(nil), orig...)
		pos := rng.IntN(len(data))
		data[pos] ^= byte(1 + rng.IntN(255))
		mut := *sess
		mut.Cores = append([]trace.CoreTrace(nil), sess.Cores...)
		mut.Cores[0] = trace.CoreTrace{Core: 0, Data: data}
		res := Decode(&mut, prog)
		score := metrics.PathAccuracy(gt.ByThread, res.ByThread())
		// A single flip may desync one segment; wholesale invention of
		// events would indicate the decoder wandering off the CFG.
		if score.Spurious > score.Truth/4 {
			t.Fatalf("trial %d: bit flip at %d invented %d events (truth %d)",
				trial, pos, score.Spurious, score.Truth)
		}
	}
}
