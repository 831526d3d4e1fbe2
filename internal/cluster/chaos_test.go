package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// liteCluster builds a bookkeeping-only cluster with the Agent profile
// deployed everywhere, ready for replicated-control-plane tests.
func liteCluster(t *testing.T, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = 20
	cfg.CoresPerNode = 4
	cfg.Seed = 11
	cfg.Replicas = 3
	if mutate != nil {
		mutate(&cfg)
	}
	c := New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(agent, nil, workload.InstallOpts{}); err != nil {
		t.Fatal(err)
	}
	return c
}

// activeLeaders samples the leader-safety probe: the largest number of
// fencing-valid owners of any one shard at now.
func activeLeaders(c *Cluster, now simtime.Time) int {
	n := 0
	for s := 0; s < c.API.Shards(); s++ {
		n = max(n, c.ActiveOwnersShard(s, now))
	}
	return n
}

// checkNoLostNoDup asserts the zero-lost/zero-duplicated-sessions
// contract for every request that ran to a terminal phase on its own
// (not expired or shed): unique session keys, and every planned slot
// accounted for exactly once as landed or given up.
func checkNoLostNoDup(t *testing.T, c *Cluster) {
	t.Helper()
	for _, r := range c.API.List() {
		if r.Planned == 0 {
			continue
		}
		seen := make(map[string]bool)
		for _, k := range r.SessionKeys {
			if seen[k] {
				t.Fatalf("%s: duplicated session key %s", r.Name, k)
			}
			seen[k] = true
		}
		if strings.Contains(r.Message, "deadline exceeded") {
			continue
		}
		if got := len(r.SessionKeys) + r.Lost; got != r.Planned {
			t.Fatalf("%s: %d landed + %d lost != %d planned (phase %s, msg %q)",
				r.Name, len(r.SessionKeys), r.Lost, r.Planned, r.Phase, r.Message)
		}
	}
}

// TestBackoffClampedAfterJitter pins the retry-backoff bounds: the
// cap is applied to the jittered delay, not only to the pre-jitter base,
// so no retry ever waits longer than retryMaxBackoff.
func TestBackoffClampedAfterJitter(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) { cfg.Nodes = 1 })
	sawCap := false
	for attempt := 0; attempt < 10; attempt++ {
		for i := 0; i < 200; i++ {
			d := c.backoff(attempt)
			if d > simtime.Second {
				t.Fatalf("backoff(attempt=%d) = %v exceeds 1s cap", attempt, d)
			}
			if d <= 0 {
				t.Fatalf("backoff(attempt=%d) = %v not positive", attempt, d)
			}
			if attempt >= 7 && d == simtime.Second {
				sawCap = true
			}
		}
	}
	// With base 10ms, attempt >= 7 saturates the pre-jitter cap
	// (10ms·2⁷ = 1.28s), and +50% jitter must actually hit the clamp
	// sometimes.
	if !sawCap {
		t.Fatal("jittered backoff never reached the clamp; cap not exercised")
	}
}

// TestWorkQueue pins FIFO order, add-time dedup, and the rate limiter's
// deterministic exponential bounds.
func TestWorkQueue(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) { cfg.Nodes = 1 })
	q := newWorkQueue(c, nil)
	q.Add("a")
	q.Add("b")
	q.Add("a") // dedup
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	if n, _ := q.Pop(); n != "a" {
		t.Fatalf("pop = %s", n)
	}
	if n, _ := q.Pop(); n != "b" {
		t.Fatalf("pop = %s", n)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty")
	}
	want := []simtime.Duration{
		5 * simtime.Millisecond, 10 * simtime.Millisecond, 20 * simtime.Millisecond,
		40 * simtime.Millisecond, 80 * simtime.Millisecond, 160 * simtime.Millisecond,
		320 * simtime.Millisecond, 640 * simtime.Millisecond, simtime.Second, simtime.Second,
	}
	for n, w := range want {
		if got := q.delayFor(n); got != w {
			t.Fatalf("delayFor(%d) = %v, want %v", n, got, w)
		}
	}
	// Delayed re-add lands on the virtual clock.
	q.AddAfter("x", 30*simtime.Millisecond)
	if q.Len() != 0 {
		t.Fatal("AddAfter added immediately")
	}
	c.Run(c.Eng.Now() + 31*simtime.Millisecond)
	if q.Len() != 1 {
		t.Fatal("AddAfter never landed")
	}
}

// TestWatchStreamOverflowForcesRelist pins the bounded-buffer contract:
// a slow consumer loses oldest events, is marked stale, and must relist.
func TestWatchStreamOverflowForcesRelist(t *testing.T) {
	a := NewAPIServer()
	kicks := 0
	w := a.WatchShard(0, func() { kicks++ })
	w.max = 3
	for i := 0; i < 5; i++ {
		r, err := a.Create(fmt.Sprintf("r-%d", i), TraceRequestSpec{App: "x"})
		if err != nil {
			t.Fatal(err)
		}
		if r.ResourceVersion != int64(i+1) {
			t.Fatalf("rv = %d", r.ResourceVersion)
		}
	}
	if kicks != 1 {
		t.Fatalf("notify fired %d times; want edge-triggered 1", kicks)
	}
	if !w.Stale() || w.Len() != 3 {
		t.Fatalf("stale=%v len=%d after overflow", w.Stale(), w.Len())
	}
	ev, _ := w.Next()
	if ev.Name != "r-2" {
		t.Fatalf("oldest surviving event = %s; drop-oldest violated", ev.Name)
	}
	w.Reset()
	if w.Stale() || w.Len() != 0 {
		t.Fatal("Reset did not clear the stream")
	}
	// Next change notifies again (empty -> non-empty edge).
	r, _ := a.Get("r-0")
	a.Touch(r)
	if kicks != 2 || w.Len() != 1 {
		t.Fatalf("kicks=%d len=%d after Touch", kicks, w.Len())
	}
}

// TestCASPhaseConflict pins the optimistic-concurrency contract on
// phase transitions.
func TestCASPhaseConflict(t *testing.T) {
	a := NewAPIServer()
	r, err := a.Create("r", TraceRequestSpec{App: "x"})
	if err != nil {
		t.Fatal(err)
	}
	rv := r.ResourceVersion
	a.Touch(r) // a concurrent writer moves the object
	if err := a.CASPhase(r, rv, PhaseRunning, ""); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale CAS: %v, want ErrConflict", err)
	}
	if r.Phase != PhasePending {
		t.Fatalf("phase mutated by failed CAS: %s", r.Phase)
	}
	if err := a.CASPhase(r, r.ResourceVersion, PhaseRunning, ""); err != nil {
		t.Fatal(err)
	}
	if r.Phase != PhaseRunning {
		t.Fatalf("phase = %s", r.Phase)
	}
}

// TestLeaseStoreFencing pins election safety: a valid lease excludes
// other acquirers, every fresh acquisition changes the fencing token,
// and a deposed holder's token is rejected.
func TestLeaseStoreFencing(t *testing.T) {
	ls := NewLeaseStore(1)
	tok0, ok := ls.TryAcquireShard(0, "ctrl-0", 0, 400*simtime.Millisecond)
	if !ok {
		t.Fatal("first acquire failed")
	}
	if _, ok := ls.TryAcquireShard(0, "ctrl-1", 100*simtime.Millisecond, 400*simtime.Millisecond); ok {
		t.Fatal("acquired over a valid lease")
	}
	// Renewal keeps the token.
	tokR, ok := ls.TryAcquireShard(0, "ctrl-0", 200*simtime.Millisecond, 400*simtime.Millisecond)
	if !ok || tokR != tok0 {
		t.Fatalf("renewal token %d, want %d", tokR, tok0)
	}
	// Expiry lets a challenger in with a new token; the old one fences.
	tok1, ok := ls.TryAcquireShard(0, "ctrl-1", 700*simtime.Millisecond, 400*simtime.Millisecond)
	if !ok || tok1 == tok0 {
		t.Fatalf("failover token %d after %d", tok1, tok0)
	}
	if ls.ValidForShard(0, "ctrl-0", tok0, 800*simtime.Millisecond) {
		t.Fatal("deposed holder still valid")
	}
	if !ls.ValidForShard(0, "ctrl-1", tok1, 800*simtime.Millisecond) {
		t.Fatal("new holder not valid")
	}
	if ls.Failovers() != 1 {
		t.Fatalf("failovers = %d", ls.Failovers())
	}
	// Same-holder re-acquire after a lapse still refreshes the token, so
	// callbacks from the dead incarnation stay fenced.
	tok2, _ := ls.TryAcquireShard(0, "ctrl-1", 2*simtime.Second, 400*simtime.Millisecond)
	if tok2 == tok1 {
		t.Fatal("token survived a lapse")
	}
	frac, gaps := ls.Availability(2.4)
	if frac <= 0 || frac >= 1 || gaps < 2 {
		t.Fatalf("availability %.3f gaps %d", frac, gaps)
	}
}

// TestReplicatedPlaneCompletesRequests is the replicated control plane
// on a calm sea: requests flow Pending -> Running -> Completed with
// full coverage, one leader does all the work, and every planned slot
// is accounted for.
func TestReplicatedPlaneCompletesRequests(t *testing.T) {
	c := liteCluster(t, nil)
	for i := 0; i < 5; i++ {
		if _, err := c.Request(fmt.Sprintf("r-%d", i), TraceRequestSpec{
			App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 100 * simtime.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(2 * simtime.Second)
	for _, r := range c.API.List() {
		if r.Phase != PhaseCompleted {
			t.Fatalf("%s: phase %s (%s)", r.Name, r.Phase, r.Message)
		}
		if r.Planned == 0 || len(r.SessionKeys) != r.Planned {
			t.Fatalf("%s: %d/%d sessions", r.Name, len(r.SessionKeys), r.Planned)
		}
	}
	checkNoLostNoDup(t, c)
	if n := activeLeaders(c, c.Eng.Now()); n != 1 {
		t.Fatalf("%d active leaders", n)
	}
	if c.Mgmt.Syncs == 0 || c.Leases.Elections() != 1 {
		t.Fatalf("syncs=%d elections=%d", c.Mgmt.Syncs, c.Leases.Elections())
	}
	frac, _ := c.Leases.Availability(c.Eng.Now().Seconds())
	if frac < 0.99 {
		t.Fatalf("availability %.4f on a calm run", frac)
	}
}

// TestForcedFailoversLoseNothing is the headline chaos guarantee: six
// forced leader crashes while requests are in flight, and still a
// single active leader at every sampled instant, every request
// terminal, and zero lost or duplicated sessions.
func TestForcedFailoversLoseNothing(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) { cfg.Nodes = 40 })
	running := make(map[string]int)
	c.API.Watch(func(r *TraceRequest) {
		if r.Phase == PhaseRunning {
			running[r.Name]++
		}
	})
	// A steady stream of requests keeps work in flight across failovers.
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("r-%d", i)
		c.Eng.AfterDetached(simtime.Duration(i)*180*simtime.Millisecond, func(simtime.Time) {
			// Long sessions (~1.5-3 s) guarantee requests are still in
			// flight when leaders die, so failovers must re-adopt them.
			if _, err := c.Request(name, TraceRequestSpec{
				App: "Agent", Purpose: coverage.PurposeAnomaly,
				Period: 1500 * simtime.Millisecond, Deadline: 30 * simtime.Second,
			}); err != nil {
				t.Errorf("request %s: %v", name, err)
			}
		})
	}
	// Crash the current leader every 700 ms; 450 ms downtime outlives
	// the 400 ms lease so another replica must take over.
	for i := 1; i <= 6; i++ {
		c.Eng.AfterDetached(simtime.Duration(i)*700*simtime.Millisecond, func(now simtime.Time) {
			for _, ct := range c.Controllers {
				if ct.Leader() && !ct.down {
					ct.crash(450*simtime.Millisecond, nil)
					return
				}
			}
		})
	}
	// Safety invariant, sampled every 10 ms: never two active leaders.
	var sample func(now simtime.Time)
	sample = func(now simtime.Time) {
		if n := activeLeaders(c, now); n > 1 {
			t.Fatalf("%d active leaders at %v", n, now)
		}
		if now < 10*simtime.Second {
			c.Eng.AfterDetached(10*simtime.Millisecond, sample)
		}
	}
	c.Eng.AfterDetached(10*simtime.Millisecond, sample)

	c.Run(15 * simtime.Second)

	if got := c.Leases.Failovers(); got < 5 {
		t.Fatalf("failovers = %d, want >= 5", got)
	}
	for _, r := range c.API.List() {
		if !r.Phase.Terminal() {
			t.Fatalf("%s not terminal: %s (%s)", r.Name, r.Phase, r.Message)
		}
		if running[r.Name] > 1 {
			t.Fatalf("%s started %d times", r.Name, running[r.Name])
		}
	}
	checkNoLostNoDup(t, c)
	if len(c.Readopts) == 0 {
		t.Fatal("no re-adoption times recorded across failovers")
	}
	frac, gaps := c.Leases.Availability(c.Eng.Now().Seconds())
	if frac >= 1 || frac < 0.5 {
		t.Fatalf("availability %.3f across 6 crashes", frac)
	}
	if gaps == 0 {
		t.Fatal("crashes produced no leadership gaps")
	}
}

// chaosFaults is the full storm: node crashes, controller crashes,
// partitions, gray nodes, clock skew, and flaky stores.
func chaosFaults(seed uint64) faults.Config {
	return faults.Config{
		Seed:              seed,
		CrashMTBF:         4 * simtime.Second,
		CrashDowntime:     800 * simtime.Millisecond,
		CtrlCrashMTBF:     3 * simtime.Second,
		CtrlCrashDowntime: 600 * simtime.Millisecond,
		PartitionMTBF:     2 * simtime.Second,
		PartitionMeanDur:  300 * simtime.Millisecond,
		GrayNodeProb:      0.2,
		GrayDelayMean:     400 * simtime.Millisecond,
		ClockSkewMax:      50 * simtime.Millisecond,
		SessionLossProb:   0.05,
		PutFailProb:       0.05,
	}
}

// runChaos builds a replicated lite cluster under the full storm,
// pushes requests through it, and returns it after the run.
func runChaos(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	c := liteCluster(t, func(cfg *Config) {
		cfg.Seed = seed
		cfg.Nodes = 30
		cfg.Faults = faults.New(chaosFaults(seed*3 + 7))
	})
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("r-%d", i)
		c.Eng.AfterDetached(simtime.Duration(i)*250*simtime.Millisecond, func(simtime.Time) {
			// Filing can only fail on a programming error here; chaos does
			// not touch the configuration interface.
			if _, err := c.Request(name, TraceRequestSpec{
				App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 100 * simtime.Millisecond,
			}); err != nil {
				t.Errorf("request %s: %v", name, err)
			}
		})
	}
	c.Run(20 * simtime.Second)
	return c
}

// TestLivenessUnderChaos is the liveness property test: across many
// seeds of randomized crash/partition/gray schedules, every admitted
// TraceRequest reaches a terminal phase, and no session is duplicated.
func TestLivenessUnderChaos(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for s := 0; s < seeds; s++ {
		seed := uint64(100 + s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := runChaos(t, seed)
			for _, r := range c.API.List() {
				if !r.Phase.Terminal() {
					t.Fatalf("%s stuck in %s (%s)", r.Name, r.Phase, r.Message)
				}
			}
			checkNoLostNoDup(t, c)
			if n := activeLeaders(c, c.Eng.Now()); n > 1 {
				t.Fatalf("%d active leaders", n)
			}
		})
	}
}

// TestChaosDeterministicForFixedSeed pins reproducibility: the same
// seed yields the same phases, sessions, and control-plane counters.
func TestChaosDeterministicForFixedSeed(t *testing.T) {
	fingerprint := func(c *Cluster) string {
		var b strings.Builder
		for _, r := range c.API.List() {
			fmt.Fprintf(&b, "%s=%s/%d/%d/%d;", r.Name, r.Phase, len(r.SessionKeys), r.Lost, r.Resampled)
		}
		fmt.Fprintf(&b, "syncs=%d requeues=%d elections=%d failovers=%d suspicions=%d",
			c.Mgmt.Syncs, c.Mgmt.Requeues, c.Leases.Elections(), c.Leases.Failovers(),
			c.Mgmt.FalseSuspicions)
		return b.String()
	}
	a := fingerprint(runChaos(t, 42))
	b := fingerprint(runChaos(t, 42))
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == fingerprint(runChaos(t, 43)) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestGrayNodesCauseFalseSuspicions pins the gray-failure model: late
// heartbeats lapse leases on live nodes and the control plane records
// the false suspicions.
func TestGrayNodesCauseFalseSuspicions(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 10
		cfg.Faults = faults.New(faults.Config{
			Seed:          6,
			GrayNodeProb:  1,
			GrayDelayMean: 600 * simtime.Millisecond,
		})
	})
	c.Run(5 * simtime.Second)
	if c.Mgmt.FalseSuspicions == 0 {
		t.Fatal("all-gray fleet produced no false suspicions")
	}
	if c.Cfg.Faults.Stats().GrayDelays == 0 {
		t.Fatal("no heartbeat delays recorded")
	}
	for _, n := range c.Nodes {
		if n.Down {
			t.Fatalf("%s marked down; gray nodes are alive", n.Name)
		}
	}
}

// TestPartitionedLeaderIsFenced pins the partition model: when the
// leader loses the store, its lease decays, a peer takes over, and the
// old incarnation is fenced rather than acting on stale leadership.
func TestPartitionedLeaderIsFenced(t *testing.T) {
	c := liteCluster(t, nil)
	c.Run(300 * simtime.Millisecond)
	var leader *Controller
	for _, ct := range c.Controllers {
		if ct.Leader() {
			leader = ct
			break
		}
	}
	if leader == nil {
		t.Fatal("no leader elected")
	}
	// Partition the leader for well over the lease TTL.
	leader.partitionedUntil = c.Eng.Now() + 2*simtime.Second
	c.Run(c.Eng.Now() + simtime.Second)
	holder, _ := c.Leases.HolderShard(0)
	if holder == leader.Name {
		t.Fatalf("partitioned leader %s still holds the lease", holder)
	}
	if n := activeLeaders(c, c.Eng.Now()); n != 1 {
		t.Fatalf("%d active leaders during partition", n)
	}
	if c.Leases.Failovers() == 0 {
		t.Fatal("partition caused no failover")
	}
	// Heal; the deposed replica must not split-brain on return.
	c.Run(c.Eng.Now() + 2*simtime.Second)
	if n := activeLeaders(c, c.Eng.Now()); n != 1 {
		t.Fatalf("%d active leaders after heal", n)
	}
}
