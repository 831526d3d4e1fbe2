package core

import (
	"slices"
	"testing"

	"exist/internal/binary"
	"exist/internal/decode"
	"exist/internal/kernel"
	"exist/internal/memalloc"
	"exist/internal/metrics"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/xrand"
)

// testRig is a machine with a traced walker process and a co-located
// noise process (the shared-environment setting the paper targets).
type testRig struct {
	m      *sched.Machine
	target *sched.Process
	prog   *binary.Program
	gt     *trace.GroundTruth
}

func newRig(t *testing.T, cores, targetThreads int, window simtime.Duration) *testRig {
	t.Helper()
	cfg := sched.DefaultConfig()
	cfg.Cores = cores
	cfg.HTSiblings = false
	cfg.Seed = 11
	cfg.Timeslice = 1 * simtime.Millisecond
	m := sched.NewMachine(cfg)

	prog := binary.Synthesize(binary.DefaultSpec("target", 21))
	target := m.AddProcess("target", prog, sched.CPUShare, m.AllCores())
	for i := 0; i < targetThreads; i++ {
		m.SpawnThread(target, sched.NewWalkerExec(prog, xrand.SplitN(31, "t", i), cfg.Cost, 1e-4))
	}
	noise := m.AddProcess("noise", nil, sched.CPUShare, m.AllCores())
	for i := 0; i < cores; i++ {
		m.SpawnThread(noise, sched.NewAnalyticExec(
			xrand.SplitN(32, "n", i), cfg.Cost, 1_450_000,
			[]float64{1, 1, 0, 0, 1}, 40, 0.2, 1.5))
	}
	gt := trace.NewGroundTruth(prog, 0, simtime.Time(window))
	m.Listener = func(th *sched.Thread, now simtime.Time, ev binary.BranchEvent) {
		if th.Proc == target {
			gt.Record(int32(th.TID), now, ev)
		}
	}
	return &testRig{m: m, target: target, prog: prog, gt: gt}
}

func testConfig(period simtime.Duration) Config {
	cfg := DefaultConfig()
	cfg.Period = period
	cfg.Scale = trace.SpaceScale
	return cfg
}

func TestSessionLifecycle(t *testing.T) {
	rig := newRig(t, 4, 2, 300*simtime.Millisecond)
	ctrl := NewController(rig.m)
	sess, err := ctrl.Trace(rig.target, testConfig(200*simtime.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Active() {
		t.Fatal("session should be active")
	}
	if _, err := sess.Result(); err == nil {
		t.Fatal("Result before window end should fail")
	}
	rig.m.Run(300 * simtime.Millisecond)
	if sess.Active() {
		t.Fatal("HRT did not close the window")
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.End - sess.Start; got != 200*simtime.Millisecond {
		t.Fatalf("window length = %v, want 200ms", got)
	}
	if res.TotalBytes() == 0 {
		t.Fatal("no trace data captured")
	}
	if len(res.Switches.Records) == 0 {
		t.Fatal("no five-tuple records")
	}
}

// TestControllerForgetsClosedSessions runs three sessions one after the
// other on one controller, the last one cancelled. Once each closes, the
// sched_switch hook stops walking it: after the third the hook's list is
// empty. Each session's switch records and stats match a run in which
// every closed session stays in the list.
func TestControllerForgetsClosedSessions(t *testing.T) {
	run := func(prune bool) ([]*Session, *Controller) {
		rig := newRig(t, 4, 2, 400*simtime.Millisecond)
		ctrl := NewController(rig.m)
		var out []*Session
		for k, at := range []simtime.Time{0, 120 * simtime.Millisecond, 240 * simtime.Millisecond} {
			rig.m.Run(at)
			if prune && len(ctrl.sessions) != 0 {
				t.Fatalf("session %d opens with %d sessions still hooked", k, len(ctrl.sessions))
			}
			s, err := ctrl.Trace(rig.target, testConfig(100*simtime.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			if !prune {
				// The reference keeps every closed session in the hook's list.
				s.OnDone(func(s *Session) { ctrl.sessions = append(ctrl.sessions, s) })
			}
			out = append(out, s)
		}
		rig.m.Run(300 * simtime.Millisecond)
		out[2].Cancel()
		rig.m.Run(400 * simtime.Millisecond)
		return out, ctrl
	}
	pruned, ctrl := run(true)
	if len(ctrl.sessions) != 0 {
		t.Fatalf("%d closed sessions still hooked", len(ctrl.sessions))
	}
	kept, ref := run(false)
	if len(ref.sessions) != 3 {
		t.Fatalf("reference hooks %d sessions, want 3", len(ref.sessions))
	}
	for k := range pruned {
		got, want := pruned[k].log.Records, kept[k].log.Records
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("session %d: %d switch records, reference %d, or they differ", k, len(got), len(want))
		}
		if pruned[k].Stats != kept[k].Stats {
			t.Fatalf("session %d stats %+v, reference %+v", k, pruned[k].Stats, kept[k].Stats)
		}
	}
}

// TestControlOpsAreOCores is the paper's core claim (§3.2): control
// operations scale with the number of cores, not context switches.
func TestControlOpsAreOCores(t *testing.T) {
	rig := newRig(t, 4, 3, 600*simtime.Millisecond)
	ctrl := NewController(rig.m)
	sess, err := ctrl.Trace(rig.target, testConfig(500*simtime.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rig.m.Run(600 * simtime.Millisecond)

	switches := rig.m.Stats.Switches
	if switches < 500 {
		t.Fatalf("test needs a busy machine; only %d switches", switches)
	}
	// Per planned core: 2 configure writes + at most 1 enable + at most
	// 1 disable = 4. Allow the arm/teardown slack but stay O(#cores).
	maxOps := int64(len(sess.Plan.Cores))*4 + 4
	if sess.Stats.MSROps > maxOps {
		t.Fatalf("MSR ops = %d (> %d) for %d switches — control is not O(#cores)",
			sess.Stats.MSROps, maxOps, switches)
	}
	if sess.Stats.EnabledCores == 0 {
		t.Fatal("no cores ever enabled")
	}
	if sess.Stats.SwitchRecords < switches/8 {
		t.Fatalf("suspiciously few five-tuple records: %d", sess.Stats.SwitchRecords)
	}
}

func TestPerThreadAblationCostsPerSwitch(t *testing.T) {
	rig := newRig(t, 4, 3, 400*simtime.Millisecond)
	ctrl := NewController(rig.m)
	cfg := testConfig(300 * simtime.Millisecond)
	cfg.Buffers = PerThread
	sess, err := ctrl.Trace(rig.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig.m.Run(400 * simtime.Millisecond)
	if sess.Stats.BufferSwaps == 0 {
		t.Fatal("per-thread mode performed no swaps")
	}
	// Each swap is a multi-MSR sequence: ops must scale with swaps.
	if sess.Stats.MSROps < sess.Stats.BufferSwaps*3 {
		t.Fatalf("MSR ops %d do not reflect %d swaps", sess.Stats.MSROps, sess.Stats.BufferSwaps)
	}
}

func TestAccuracyAgainstGroundTruth(t *testing.T) {
	rig := newRig(t, 4, 2, 400*simtime.Millisecond)
	ctrl := NewController(rig.m)
	cfg := testConfig(300 * simtime.Millisecond)
	sess, err := ctrl.Trace(rig.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig.gt.Start, rig.gt.End = sess.Start, sess.Start+cfg.Period
	rig.m.Run(400 * simtime.Millisecond)
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	rec := decode.Decode(res, rig.prog)
	score := metrics.PathAccuracy(rig.gt.ByThread, rec.ByThread())
	if score.Truth == 0 {
		t.Fatal("no ground truth")
	}
	if score.Accuracy < 0.9 {
		t.Fatalf("EXIST accuracy = %.3f (matched %d / %d, %d decode errors)",
			score.Accuracy, score.Matched, score.Truth, len(rec.Errors))
	}
	if score.Spurious > score.Decoded/50 {
		t.Fatalf("too many spurious events: %+v", score)
	}
}

// TestPerMilleOverhead verifies the headline: tracing a workload with
// EXIST costs well under the single-digit range of conventional schemes.
func TestPerMilleOverhead(t *testing.T) {
	run := func(traced bool) int64 {
		cfg := sched.DefaultConfig()
		cfg.Cores = 4
		cfg.HTSiblings = false
		cfg.Seed = 13
		m := sched.NewMachine(cfg)
		target := m.AddProcess("t", nil, sched.CPUSet, []int{0, 1})
		var threads []*sched.Thread
		for i := 0; i < 2; i++ {
			threads = append(threads, m.SpawnThread(target, sched.NewAnalyticExec(
				xrand.SplitN(3, "w", i), cfg.Cost, 14_500_000, []float64{1}, 30, 0.2, 1.5)))
		}
		noise := m.AddProcess("noise", nil, sched.CPUSet, []int{0, 1})
		for i := 0; i < 2; i++ {
			m.SpawnThread(noise, sched.NewAnalyticExec(
				xrand.SplitN(4, "n", i), cfg.Cost, 14_500_000, []float64{1}, 30, 0.2, 1.5))
		}
		if traced {
			ctrl := NewController(m)
			c := DefaultConfig()
			c.Period = 1900 * simtime.Millisecond
			c.Scale = trace.SpaceScale
			if _, err := ctrl.Trace(target, c); err != nil {
				t.Fatal(err)
			}
		}
		m.Run(2 * simtime.Second)
		var cycles int64
		for _, th := range threads {
			cycles += th.Stats.Cycles
		}
		return cycles
	}
	base, traced := run(false), run(true)
	overhead := float64(base)/float64(traced) - 1
	if overhead < 0 {
		overhead = -overhead
	}
	if overhead > 0.02 {
		t.Fatalf("EXIST overhead = %.4f, want < 2%% worst case", overhead)
	}
}

func TestCompulsoryDrop(t *testing.T) {
	rig := newRig(t, 2, 1, 400*simtime.Millisecond)
	ctrl := NewController(rig.m)
	cfg := testConfig(300 * simtime.Millisecond)
	cfg.Mem = memalloc.Config{Budget: 4 << 10, PerCoreMin: 1 << 10, PerCoreMax: 2 << 10}
	cfg.Scale = 1 // tiny unscaled buffers
	sess, err := ctrl.Trace(rig.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig.m.Run(400 * simtime.Millisecond)
	res, _ := sess.Result()
	stopped := false
	for _, c := range res.Cores {
		if c.Stopped && c.DroppedBytes > 0 {
			stopped = true
		}
	}
	if !stopped {
		t.Fatal("tiny buffers did not trigger compulsory drop")
	}
}

func TestRingModeWraps(t *testing.T) {
	rig := newRig(t, 2, 1, 400*simtime.Millisecond)
	ctrl := NewController(rig.m)
	cfg := testConfig(300 * simtime.Millisecond)
	cfg.Mem = memalloc.Config{Budget: 4 << 10, PerCoreMin: 1 << 10, PerCoreMax: 2 << 10}
	cfg.Scale = 1
	cfg.Drop = DropRing
	sess, err := ctrl.Trace(rig.target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig.m.Run(400 * simtime.Millisecond)
	res, _ := sess.Result()
	wrapped := false
	for _, c := range res.Cores {
		if c.Wrapped {
			wrapped = true
		}
		if c.Stopped {
			t.Fatal("ring mode must not stop")
		}
	}
	if !wrapped {
		t.Fatal("ring mode never wrapped")
	}
}

func TestCancel(t *testing.T) {
	rig := newRig(t, 2, 1, 200*simtime.Millisecond)
	ctrl := NewController(rig.m)
	sess, err := ctrl.Trace(rig.target, testConfig(150*simtime.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rig.m.Run(50 * simtime.Millisecond)
	sess.Cancel()
	if sess.Active() {
		t.Fatal("cancel did not close session")
	}
	if _, err := sess.Result(); err != nil {
		t.Fatal("cancelled session should have a result")
	}
	// No tracer may be left enabled.
	for _, c := range rig.m.Cores {
		if c.Tracer.Enabled() {
			t.Fatal("tracer left enabled after cancel")
		}
	}
	rig.m.Run(200 * simtime.Millisecond) // HRT already cancelled; no panic
}

func TestDoubleTraceSameCoresFails(t *testing.T) {
	rig := newRig(t, 2, 1, 200*simtime.Millisecond)
	ctrl := NewController(rig.m)
	if _, err := ctrl.Trace(rig.target, testConfig(150*simtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rig.m.Run(10 * simtime.Millisecond)
	// By now at least one tracer is enabled; a second overlapping session
	// on the same cores must be refused.
	if _, err := ctrl.Trace(rig.target, testConfig(100*simtime.Millisecond)); err == nil {
		t.Fatal("overlapping session on busy tracers should fail")
	}
}

func TestInsmodIdempotent(t *testing.T) {
	rig := newRig(t, 2, 1, 100*simtime.Millisecond)
	ctrl := NewController(rig.m)
	ctrl.Insmod()
	k := rig.m.Cores[0].KernelNS
	ctrl.Insmod()
	if rig.m.Cores[0].KernelNS != k {
		t.Fatal("Insmod charged twice")
	}
	if k < InsmodCost {
		t.Fatal("Insmod cost missing")
	}
}

func TestFiveTupleRecordsParse(t *testing.T) {
	rig := newRig(t, 2, 2, 300*simtime.Millisecond)
	ctrl := NewController(rig.m)
	sess, err := ctrl.Trace(rig.target, testConfig(200*simtime.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rig.m.Run(300 * simtime.Millisecond)
	res, _ := sess.Result()
	round, err := kernel.DecodeSwitchLog(res.Switches.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Records) != len(res.Switches.Records) {
		t.Fatal("five-tuple log does not round-trip")
	}
	for _, r := range res.Switches.Records {
		if r.PID != int32(rig.target.PID) {
			t.Fatalf("record for foreign pid %d", r.PID)
		}
	}
}
