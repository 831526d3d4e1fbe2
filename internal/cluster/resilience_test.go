package cluster

import (
	"strings"
	"testing"

	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// faultyCluster builds a small walker-backed cluster with the given
// injector attached.
func faultyCluster(t *testing.T, nodes int, fc faults.Config) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = 4
	cfg.Seed = 3
	cfg.Faults = faults.New(fc)
	c := New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(agent, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestZeroProbInjectorMatchesFaultFreeRun is the opt-in guarantee at the
// cluster level: attaching an injector that never fires leaves every
// observable output identical to a run with no injector at all.
func TestZeroProbInjectorMatchesFaultFreeRun(t *testing.T) {
	run := func(inj *faults.Injector) (Phase, int64, int, float64) {
		cfg := DefaultConfig()
		cfg.Nodes = 3
		cfg.CoresPerNode = 4
		cfg.Seed = 3
		cfg.Faults = inj
		c := New(cfg)
		agent, err := workload.ByName("Agent")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Deploy(agent, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		req, err := c.Request("same", TraceRequestSpec{
			App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(2 * simtime.Second)
		return req.Phase, c.OSS.Bytes(), c.ODPS.Len(), c.Mgmt.CPUSeconds
	}
	// A zero-probability injector arms leases and deadlines but never
	// injects; the data path must not notice.
	p1, b1, r1, cpu1 := run(nil)
	p2, b2, r2, _ := run(faults.New(faults.Config{Seed: 99}))
	if p1 != p2 || b1 != b2 || r1 != r2 {
		t.Fatalf("zero-prob injector changed outputs: %v/%d/%d vs %v/%d/%d", p1, b1, r1, p2, b2, r2)
	}
	if cpu1 <= 0 {
		t.Fatal("no management CPU accounted")
	}
}

func TestRetryRecoversTransientPutFailures(t *testing.T) {
	c := faultyCluster(t, 3, faults.Config{Seed: 11, PutFailProb: 0.4, InsertFailProb: 0.4})
	req, err := c.Request("flaky", TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * simtime.Second)
	if req.Phase != PhaseCompleted {
		t.Fatalf("phase = %s (%s)", req.Phase, req.Message)
	}
	if c.Cfg.Faults.Stats().PutFailures == 0 {
		t.Fatal("injector never fired; test is vacuous")
	}
	if c.Mgmt.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	// All three sessions landed despite the failures.
	if len(req.SessionKeys) != 3 {
		t.Fatalf("sessions = %v", req.SessionKeys)
	}
	// The request recovered, so no stale transient-error message remains.
	if req.Message != "" {
		t.Fatalf("stale message after recovery: %q", req.Message)
	}
}

func TestSessionLossDegradesToPartialCoverage(t *testing.T) {
	c := faultyCluster(t, 6, faults.Config{Seed: 21, SessionLossProb: 0.5})
	req, err := c.Request("lossy", TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(10 * simtime.Second)
	if !req.Phase.Terminal() {
		t.Fatalf("request hung in %s", req.Phase)
	}
	if req.Phase == PhaseCompleted {
		// Possible only if every loss was recovered by re-sampling.
		if c.Cfg.Faults.Stats().SessionsLost > 0 && req.Resampled == 0 {
			t.Fatal("losses occurred but nothing was re-sampled")
		}
	}
	if req.Phase == PhaseDegraded {
		if len(req.SessionKeys) == 0 {
			t.Fatal("degraded with zero coverage should be Failed")
		}
		if req.Lost == 0 {
			t.Fatal("degraded without recorded losses")
		}
		if !strings.Contains(req.Message, "partial coverage") {
			t.Fatalf("message = %q", req.Message)
		}
	}
	// Slot accounting: every planned slot either landed or was given up.
	checkSafety(t, c)
	if got := req.CoverageFraction(); got < 0 || got > 1 {
		t.Fatalf("coverage fraction %v", got)
	}
}

func TestTotalLossFailsTerminally(t *testing.T) {
	c := faultyCluster(t, 3, faults.Config{Seed: 5, SessionLossProb: 1})
	req, err := c.Request("doomed", TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(15 * simtime.Second)
	if req.Phase != PhaseFailed {
		t.Fatalf("phase = %s (%s), want Failed", req.Phase, req.Message)
	}
	if len(req.SessionKeys) != 0 {
		t.Fatalf("keys = %v on total loss", req.SessionKeys)
	}
}

func TestNodeCrashLeaseExpiryAndResample(t *testing.T) {
	c := faultyCluster(t, 5, faults.Config{
		Seed:          7,
		CrashMTBF:     1500 * simtime.Millisecond,
		CrashDowntime: 800 * simtime.Millisecond,
	})
	var reqs []*TraceRequest
	for _, name := range []string{"a", "b", "c"} {
		req, err := c.Request(name, TraceRequestSpec{
			App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 400 * simtime.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	c.Run(20 * simtime.Second)
	if c.Cfg.Faults.Stats().Crashes == 0 {
		t.Fatal("no crashes injected; test is vacuous")
	}
	for _, req := range reqs {
		if !req.Phase.Terminal() {
			t.Fatalf("request %s hung in %s", req.Name, req.Phase)
		}
	}
	// Crashed nodes must have been detected through lease expiry.
	if c.Mgmt.LeaseExpiries == 0 {
		t.Fatal("no lease expiries detected despite crashes")
	}
	// Every session's table slot, crash-cancelled ones included, is back
	// on the free list, and no node reports a window still open.
	if c.slots.n == 0 || len(c.slots.free) != int(c.slots.n) {
		t.Fatalf("drained run left %d of %d table slots off the free list", int(c.slots.n)-len(c.slots.free), c.slots.n)
	}
	for _, n := range c.Nodes {
		if at, ok := c.tracerFreeAt(n); ok {
			t.Fatalf("%s reports a window closing at %v after the drain", n.Name, at)
		}
	}
}

// TestDeadlineForcesTerminalPhase pins deadline expiry: a request that
// never starts, and one whose windows outlive its deadline, both end
// terminal at the deadline.
func TestDeadlineForcesTerminalPhase(t *testing.T) {
	// A permanently stalled controller never even starts the request; the
	// deadline still forces a terminal phase instead of a hang.
	c := faultyCluster(t, 2, faults.Config{Seed: 2, StallProb: 1})
	req, err := c.Request("stuck", TraceRequestSpec{
		App: "Agent", Period: 200 * simtime.Millisecond,
		Deadline: 1 * simtime.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3 * simtime.Second)
	if req.Phase != PhaseFailed {
		t.Fatalf("phase = %s (%s), want Failed at deadline", req.Phase, req.Message)
	}
	if !strings.Contains(req.Message, "deadline") {
		t.Fatalf("message = %q", req.Message)
	}
	if c.Mgmt.Stalls == 0 {
		t.Fatal("no stalls recorded")
	}

	// A deadline that ends a Running request mid-window abandons its
	// in-flight slots: the slot rule exempts exactly those.
	c = faultyCluster(t, 2, faults.Config{Seed: 2})
	slow, err := c.Request("slow", TraceRequestSpec{
		App: "Agent", Period: 2 * simtime.Second,
		Deadline: 500 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3 * simtime.Second)
	if slow.Phase != PhaseFailed || slow.Planned == 0 || slow.pending != slow.Planned {
		t.Fatalf("phase %s, %d of %d slots pending, want Failed with every slot abandoned",
			slow.Phase, slow.pending, slow.Planned)
	}
	checkSafety(t, c)
}

// TestBusyTracerWaitsInsteadOfLosingSlots pins the busy-tracer contract:
// a request whose nodes are all held by another request's longer window
// is not a loss. Its slots keep their re-sampling attempts and wait for
// the earlier window to close, so it still completes with full coverage.
func TestBusyTracerWaitsInsteadOfLosingSlots(t *testing.T) {
	c := faultyCluster(t, 3, faults.Config{Seed: 4})
	long, err := c.Request("long", TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Period: simtime.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var short *TraceRequest
	c.Eng.Schedule(simtime.Time(200*simtime.Millisecond), func(simtime.Time) {
		if short, err = c.Request("short", TraceRequestSpec{
			App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
		}); err != nil {
			t.Error(err)
		}
	})
	c.Run(5 * simtime.Second)
	for _, r := range []*TraceRequest{long, short} {
		if r.Phase != PhaseCompleted || r.Lost != 0 || len(r.SessionKeys) != r.Planned || r.Planned != 3 {
			t.Fatalf("%s: phase %s, %d/%d sessions, %d lost (%s)",
				r.Name, r.Phase, len(r.SessionKeys), r.Planned, r.Lost, r.Message)
		}
	}
	if short.Resampled == 0 {
		t.Fatal("short request never collided with the long window; test is vacuous")
	}
}

func TestCorruptedSessionsStillDecode(t *testing.T) {
	c := faultyCluster(t, 3, faults.Config{Seed: 13, CorruptProb: 1, CorruptBits: 16})
	req, err := c.Request("noisy", TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * simtime.Second)
	if req.Phase != PhaseCompleted {
		t.Fatalf("phase = %s (%s)", req.Phase, req.Message)
	}
	if c.Cfg.Faults.Stats().SessionsCorrupted != 3 {
		t.Fatalf("corrupted = %d", c.Cfg.Faults.Stats().SessionsCorrupted)
	}
	// Corruption costs accuracy, not availability: all sessions landed.
	if len(req.SessionKeys) != 3 {
		t.Fatalf("sessions = %v", req.SessionKeys)
	}
}

func TestCancelThenDelete(t *testing.T) {
	c := testCluster(t, 2)
	req, err := c.Request("drop", TraceRequestSpec{App: "Agent", Period: 1500 * simtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(400 * simtime.Millisecond)
	// A live request cannot be deleted.
	if err := c.Delete("drop"); err == nil {
		t.Fatal("deleting a running request should fail")
	}
	c.Cancel(req)
	if req.Phase != PhaseCancelled {
		t.Fatalf("phase = %s after cancel", req.Phase)
	}
	keys := append([]string(nil), req.SessionKeys...)
	if len(keys) == 0 {
		t.Fatal("cancel kept no partial capture")
	}
	if err := c.Delete("drop"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.API.Get("drop"); ok {
		t.Fatal("request still present after delete")
	}
	for _, k := range keys {
		if _, ok := c.OSS.Get(k); ok {
			t.Fatalf("session %s survived delete", k)
		}
	}
	if err := c.Delete("drop"); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestAPIServerDeleteGuards(t *testing.T) {
	a := NewAPIServerShards(1)
	if err := a.Delete("ghost"); err == nil {
		t.Fatal("deleting a missing request should fail")
	}
	r, _ := a.Create("live", TraceRequestSpec{App: "x"})
	if err := a.Delete("live"); err == nil {
		t.Fatal("deleting a pending request should fail")
	}
	a.setPhase(r, PhaseCancelled, "test")
	if err := a.Delete("live"); err != nil {
		t.Fatal(err)
	}
	if len(a.List()) != 0 {
		t.Fatal("List still returns deleted request")
	}
}

func TestPhaseTerminal(t *testing.T) {
	for p, want := range map[Phase]bool{
		PhasePending: false, PhaseRunning: false,
		PhaseCompleted: true, PhaseDegraded: true,
		PhaseCancelled: true, PhaseFailed: true,
	} {
		if p.Terminal() != want {
			t.Errorf("Terminal(%s) = %v", p, !want)
		}
	}
}
