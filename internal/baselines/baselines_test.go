package baselines

import (
	"testing"

	"exist/internal/binary"
	"exist/internal/decode"
	"exist/internal/kernel"
	"exist/internal/metrics"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/xrand"
)

// computeRun runs a 2-thread compute workload (plus co-located noise)
// under scheme s for 1 s and returns useful cycles and the scheme.
func computeRun[S interface {
	Attach(*sched.Machine, *sched.Process) error
	Stop(simtime.Time)
}](t *testing.T, s S) (int64, S) {
	t.Helper()
	cfg := sched.DefaultConfig()
	cfg.Cores = 4
	cfg.HTSiblings = false
	cfg.Seed = 5
	m := sched.NewMachine(cfg)
	target := m.AddProcess("t", nil, sched.CPUSet, []int{0, 1})
	var threads []*sched.Thread
	for i := 0; i < 2; i++ {
		threads = append(threads, m.SpawnThread(target, sched.NewAnalyticExec(
			xrand.SplitN(3, "w", i), cfg.Cost, 2_900_000, []float64{1, 1}, 35, 0.2, 1.5)))
	}
	noise := m.AddProcess("n", nil, sched.CPUSet, []int{0, 1})
	for i := 0; i < 2; i++ {
		m.SpawnThread(noise, sched.NewAnalyticExec(
			xrand.SplitN(4, "n", i), cfg.Cost, 2_900_000, []float64{1, 1}, 35, 0.2, 1.5))
	}
	if err := s.Attach(m, target); err != nil {
		t.Fatal(err)
	}
	m.Run(1 * simtime.Second)
	s.Stop(m.Eng.Now())
	var cycles int64
	for _, th := range threads {
		cycles += th.Stats.Cycles
	}
	return cycles, s
}

func TestOracleIsFree(t *testing.T) {
	a, _ := computeRun(t, Oracle{})
	b, _ := computeRun(t, Oracle{})
	if a != b {
		t.Fatal("oracle runs must be deterministic")
	}
	if (Oracle{}).SpaceMB() != 0 || (Oracle{}).Name() != "Oracle" {
		t.Fatal("oracle surface wrong")
	}
}

func TestStaSamOverheadMagnitude(t *testing.T) {
	base, _ := computeRun(t, Oracle{})
	with, ss := computeRun(t, NewStaSam())
	over := float64(base)/float64(with) - 1
	// 3999 Hz × ~7.8µs handler+interrupt ≈ 3.1% single-digit overhead.
	if over < 0.015 || over > 0.06 {
		t.Fatalf("StaSam overhead = %.4f, want single-digit (~3%%)", over)
	}
	if ss.samples == 0 || ss.SpaceMB() <= 0 {
		t.Fatal("StaSam accounting missing")
	}
}

func TestStaSamStopsSampling(t *testing.T) {
	_, ss := computeRun(t, NewStaSam())
	before := ss.samples
	// Stopped scheme must not accumulate further (no machine to run, but
	// the hook path is checked directly).
	ss.Stop(0)
	if ss.samples != before {
		t.Fatal("Stop changed counters")
	}
}

func TestEBPFCostScalesWithSyscalls(t *testing.T) {
	base, _ := computeRun(t, Oracle{})
	with, eb := computeRun(t, NewEBPF())
	if eb.Events() == 0 {
		t.Fatal("eBPF saw no syscalls")
	}
	over := float64(base)/float64(with) - 1
	if over <= 0 {
		t.Fatalf("eBPF overhead = %.4f, must be positive", over)
	}
	if eb.SpaceMB() <= 0 {
		t.Fatal("eBPF space missing")
	}
}

func TestNHTHeaviestAndSpaceTimeProportional(t *testing.T) {
	base, _ := computeRun(t, Oracle{})
	withNHT, n := computeRun(t, NewNHT(1))
	withSam, _ := computeRun(t, NewStaSam())
	nhtOver := float64(base)/float64(withNHT) - 1
	samOver := float64(base)/float64(withSam) - 1
	if nhtOver <= samOver {
		t.Fatalf("NHT (%.4f) must cost more than StaSam (%.4f)", nhtOver, samOver)
	}
	if nhtOver > 0.25 {
		t.Fatalf("NHT overhead %.4f implausibly high", nhtOver)
	}
	if n.SpaceMB() <= 0 {
		t.Fatal("NHT space missing")
	}
	if n.MSROps() < 1000 {
		t.Fatalf("NHT must issue per-switch MSR ops, got %d", n.MSROps())
	}
}

func TestNHTReferenceSessionDecodes(t *testing.T) {
	cfg := sched.DefaultConfig()
	cfg.Cores = 2
	cfg.HTSiblings = false
	cfg.Seed = 7
	cfg.Timeslice = 1 * simtime.Millisecond
	m := sched.NewMachine(cfg)
	prog := binary.Synthesize(binary.DefaultSpec("ref", 9))
	target := m.AddProcess("ref", prog, sched.CPUShare, m.AllCores())
	m.SpawnThread(target, sched.NewWalkerExec(prog, xrand.New(1), cfg.Cost, 1e-4))
	m.SpawnThread(target, sched.NewWalkerExec(prog, xrand.New(2), cfg.Cost, 1e-4))

	gt := trace.NewGroundTruth(prog, 0, 300*simtime.Millisecond)
	m.Listener = func(th *sched.Thread, now simtime.Time, ev binary.BranchEvent) {
		if th.Proc == target {
			gt.Record(int32(th.TID), now, ev)
		}
	}
	n := NewNHT(1) // unscaled: walker traffic is tiny at 1e-4 speed
	n.FilterTarget = true
	if err := n.Attach(m, target); err != nil {
		t.Fatal(err)
	}
	m.Run(300 * simtime.Millisecond)
	n.Stop(m.Eng.Now())
	sess := n.Session("ref")
	rec := decode.Decode(sess, prog)
	score := metrics.PathAccuracy(gt.ByThread, rec.ByThread())
	if score.Truth == 0 {
		t.Fatal("no ground truth")
	}
	// NHT is the exhaustive reference: near-complete reconstruction.
	if score.Accuracy < 0.95 {
		t.Fatalf("NHT reference accuracy = %.3f (errors: %d)", score.Accuracy, len(rec.Errors))
	}
}

func TestNHTStopDisablesAllTracers(t *testing.T) {
	cfg := sched.DefaultConfig()
	cfg.Cores = 4
	cfg.Seed = 8
	m := sched.NewMachine(cfg)
	p := m.AddProcess("x", nil, sched.CPUShare, m.AllCores())
	m.SpawnThread(p, sched.NewAnalyticExec(xrand.New(1), cfg.Cost, 1_000_000, []float64{1}, 35, 0.2, 1.5))
	n := NewNHT(1)
	if err := n.Attach(m, p); err != nil {
		t.Fatal(err)
	}
	m.Run(100 * simtime.Millisecond)
	n.Stop(m.Eng.Now())
	for _, c := range m.Cores {
		if c.Tracer.Enabled() {
			t.Fatalf("core %d tracer left enabled", c.ID)
		}
	}
	// Sidecar must contain only target records.
	for _, r := range n.log.Records {
		if r.PID != int32(p.PID) {
			t.Fatalf("foreign record %+v", r)
		}
	}
	_ = kernel.RecordSize
}
