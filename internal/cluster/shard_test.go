package cluster

import (
	"fmt"
	"strings"
	"testing"

	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
)

// shardCluster builds one replicated lite cluster under the given fault
// shape and files a fixed request stream into it, ready to run for 30 s.
func shardCluster(t *testing.T, shards, replicas int, fc *faults.Config) *Cluster {
	t.Helper()
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 30
		cfg.Seed = 7
		cfg.Replicas = replicas
		cfg.Shards = shards
		if fc != nil {
			cfg.Faults = faults.New(*fc)
		}
	})
	for i := 0; i < 18; i++ {
		name := fmt.Sprintf("r-%02d", i)
		c.Eng.AfterDetached(simtime.Duration(i)*150*simtime.Millisecond, func(simtime.Time) {
			if _, err := c.Request(name, TraceRequestSpec{
				App: "Agent", Purpose: coverage.PurposeAnomaly,
				Period: 120 * simtime.Millisecond, Deadline: 25 * simtime.Second,
			}); err != nil {
				t.Errorf("request %s: %v", name, err)
			}
		})
	}
	return c
}

// shardScenario runs shardCluster and renders a summary that must be
// byte-identical across shard counts when the merged timeline is
// (per-shard resource versions, per-shard election counters, and the
// CPU ledger are deliberately excluded — those are allowed to differ).
func shardScenario(t *testing.T, shards, replicas int, fc *faults.Config) string {
	t.Helper()
	c := shardCluster(t, shards, replicas, fc)
	c.Run(30 * simtime.Second)

	var b strings.Builder
	for _, r := range c.API.List() {
		fmt.Fprintf(&b, "%s phase=%s planned=%d keys=%v lost=%d resampled=%d msg=%q\n",
			r.Name, r.Phase, r.Planned, r.SessionKeys, r.Lost, r.Resampled, r.Message)
	}
	fmt.Fprintf(&b, "syncs=%d requeues=%d conflicts=%d resamples=%d relists=%d\n",
		c.Mgmt.Syncs, c.Mgmt.Requeues, c.Mgmt.Conflicts,
		c.Mgmt.Resamples, c.Mgmt.Relists)
	fmt.Fprintf(&b, "sessions=%d batches=%d wire=%d odps=%d\n",
		c.Uploads.Sessions, c.Uploads.Batches, c.Uploads.WireBytes, c.ODPS.Len())
	return b.String()
}

// shardFaultGrid is the fault matrix the equivalence property runs over.
func shardFaultGrid() []*faults.Config {
	ctrl := &faults.Config{Seed: 19, CtrlCrashMTBF: 3 * simtime.Second, CtrlCrashDowntime: 600 * simtime.Millisecond}
	churn := &faults.Config{Seed: 23, ChurnMTBF: 40 * simtime.Second, ChurnDownMean: 800 * simtime.Millisecond}
	storm := &faults.Config{
		Seed:              29,
		CrashMTBF:         20 * simtime.Second,
		CrashDowntime:     800 * simtime.Millisecond,
		CtrlCrashMTBF:     4 * simtime.Second,
		CtrlCrashDowntime: 600 * simtime.Millisecond,
		SessionLossProb:   0.05,
		PutFailProb:       0.05,
		ChurnMTBF:         60 * simtime.Second,
		ChurnDownMean:     800 * simtime.Millisecond,
	}
	return []*faults.Config{nil, ctrl, churn, storm}
}

// TestShardedPlaneMatchesSingleShard is the sharding equivalence
// property: with one replica, splitting the API server into k shards
// leaves the merged timeline — phases, session keys, loss accounting,
// work-queue traffic, upload volume — byte-identical to the single-shard
// run, across the whole fault grid. The merged watch drain (by event
// sequence) and merged queue pop (by enqueue sequence) reconstruct the
// exact single-queue FIFO, so nothing may shift.
func TestShardedPlaneMatchesSingleShard(t *testing.T) {
	for fi, fc := range shardFaultGrid() {
		want := shardScenario(t, 1, 1, fc)
		for _, shards := range []int{2, 4, 8} {
			got := shardScenario(t, shards, 1, fc)
			if got != want {
				t.Fatalf("fault grid %d: shards=%d diverged from shards=1:\n--- want ---\n%s--- got ---\n%s",
					fi, shards, want, got)
			}
		}
	}
}

// TestShardedPlaneInvariantsMultiReplica covers the concurrent side of
// the grid: with several replicas owning disjoint shard ranges the
// timeline legitimately differs from the serial drain, but the outcome
// contract cannot — every request terminal and every safety rule held.
// It also pins the owner rule's recording point: the owner count can
// rise only where electTick acquires or renews a lease, so a 1 ms poll
// of every shard never sees more owners than Safety recorded.
func TestShardedPlaneInvariantsMultiReplica(t *testing.T) {
	for fi, fc := range shardFaultGrid() {
		for _, shards := range []int{4, 8} {
			c := shardCluster(t, shards, 3, fc)
			polled := 0
			var poll func(now simtime.Time)
			poll = func(now simtime.Time) {
				for s := 0; s < shards; s++ {
					polled = max(polled, c.ActiveOwnersShard(s, now))
				}
				c.Eng.AfterDetached(simtime.Millisecond, poll)
			}
			c.Eng.AfterDetached(0, poll)
			c.Run(30 * simtime.Second)
			for _, r := range c.API.List() {
				if !r.Phase.Terminal() {
					t.Fatalf("grid %d shards %d: %s not terminal: %s (%s)", fi, shards, r.Name, r.Phase, r.Message)
				}
			}
			s := c.Safety()
			if err := s.Err(); err != nil || polled > s.MaxOwners || s.MaxOwners != 1 {
				t.Fatalf("grid %d shards %d: polled max %d owners, recorded max %d: %v", fi, shards, polled, s.MaxOwners, err)
			}
		}
	}
}

// TestShardRebalancesLoseNothing forces repeated shard rebalances — the
// sharded analogue of the forced-failover chaos guarantee: leaders
// crash every 700 ms while striped requests are in flight, shard
// ownership migrates every time, and still every request lands
// terminal with zero lost or duplicated sessions.
func TestShardRebalancesLoseNothing(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 40
		cfg.Shards = 8
	})
	running := make(map[string]int)
	c.API.Watch(func(r *TraceRequest) {
		if r.Phase == PhaseRunning {
			running[r.Name]++
		}
	})
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("r-%d", i)
		c.Eng.AfterDetached(simtime.Duration(i)*180*simtime.Millisecond, func(simtime.Time) {
			if _, err := c.Request(name, TraceRequestSpec{
				App: "Agent", Purpose: coverage.PurposeAnomaly,
				Period: 1500 * simtime.Millisecond, Deadline: 30 * simtime.Second,
			}); err != nil {
				t.Errorf("request %s: %v", name, err)
			}
		})
	}
	// Crash the replica owning the most shards every 700 ms; 450 ms
	// downtime outlives the 400 ms range leases, so its whole range must
	// migrate to the survivors and be handed back after recovery.
	for i := 1; i <= 6; i++ {
		c.Eng.AfterDetached(simtime.Duration(i)*700*simtime.Millisecond, func(now simtime.Time) {
			var busiest *Controller
			for _, ct := range c.Controllers {
				if !ct.down && (busiest == nil || len(ct.OwnedShards()) > len(busiest.OwnedShards())) {
					busiest = ct
				}
			}
			if busiest != nil {
				busiest.crash(450*simtime.Millisecond, nil)
			}
		})
	}
	c.Run(18 * simtime.Second)

	if got := c.ShardRebalances(); got < 5 {
		t.Fatalf("shard rebalances = %d, want >= 5", got)
	}
	for _, r := range c.API.List() {
		if !r.Phase.Terminal() {
			t.Fatalf("%s not terminal: %s (%s)", r.Name, r.Phase, r.Message)
		}
		if running[r.Name] > 1 {
			t.Fatalf("%s started %d times", r.Name, running[r.Name])
		}
	}
	checkSafety(t, c)
	if len(c.Readopts) == 0 {
		t.Fatal("no re-adoption times recorded across rebalances")
	}
}

// TestShardRelistContractUnderRebalance pins the per-shard watch relist
// contract: a shard stream overflowing its tiny buffer mid-ownership
// goes stale and the owner resynchronizes with a shard-scoped relist —
// while a forced crash rebalances the shard range underneath. Nothing
// may be lost to the dropped events.
func TestShardRelistContractUnderRebalance(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 40
		cfg.Shards = 4
	})
	for _, ct := range c.Controllers {
		for _, w := range ct.watches {
			w.max = 4 // overflow on any burst of mutations
		}
	}
	// All 40 requests land on the API server in the same instant: at
	// least one shard receives 5+ ADDED events before its owner's next
	// pump and must overflow its 4-slot stream.
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("r-%02d", i)
		c.Eng.AfterDetached(100*simtime.Millisecond, func(simtime.Time) {
			if _, err := c.Request(name, TraceRequestSpec{
				App: "Agent", Purpose: coverage.PurposeAnomaly,
				Period: 400 * simtime.Millisecond, Deadline: 30 * simtime.Second,
			}); err != nil {
				t.Errorf("request %s: %v", name, err)
			}
		})
	}
	c.Eng.AfterDetached(900*simtime.Millisecond, func(now simtime.Time) {
		for _, ct := range c.Controllers {
			if len(ct.OwnedShards()) > 0 && !ct.down {
				ct.crash(450*simtime.Millisecond, nil)
				return
			}
		}
	})
	c.Run(15 * simtime.Second)

	if c.Mgmt.Relists == 0 {
		t.Fatal("tiny watch buffers never went stale: relist contract untested")
	}
	if c.ShardRebalances() == 0 {
		t.Fatal("crash forced no shard rebalance")
	}
	for _, r := range c.API.List() {
		if !r.Phase.Terminal() {
			t.Fatalf("%s not terminal after stale-watch relists: %s (%s)", r.Name, r.Phase, r.Message)
		}
	}
	checkSafety(t, c)
}

// TestShardingCutsManagementCPU pins the perf claim behind the sharded
// store: at fleet scale, management CPU per reconciled request drops by
// at least 30% going from one shard to eight, because every store write
// scans only the owning shard's live objects instead of the whole table.
func TestShardingCutsManagementCPU(t *testing.T) {
	cpuPerReq := func(shards int) float64 {
		c := liteCluster(t, func(cfg *Config) {
			cfg.Nodes = 3000
			cfg.Seed = 5
			cfg.Shards = shards
		})
		reqN := 400
		for i := 0; i < reqN; i++ {
			name := fmt.Sprintf("r-%03d", i)
			nodes := []string{
				fmt.Sprintf("node-%d", (i*8)%3000), fmt.Sprintf("node-%d", (i*8+1)%3000),
				fmt.Sprintf("node-%d", (i*8+2)%3000), fmt.Sprintf("node-%d", (i*8+3)%3000),
			}
			at := simtime.Time(i) * simtime.Time(100*simtime.Microsecond)
			c.Eng.Schedule(at, func(simtime.Time) {
				if _, err := c.Request(name, TraceRequestSpec{
					App: "Agent", Purpose: coverage.PurposeAnomaly, Nodes: nodes,
					Period: 300 * simtime.Millisecond,
				}); err != nil {
					t.Errorf("request %s: %v", name, err)
				}
			})
		}
		c.Run(10 * simtime.Second)
		for _, r := range c.API.List() {
			if !r.Phase.Terminal() {
				t.Fatalf("shards=%d: %s not terminal: %s", shards, r.Name, r.Phase)
			}
		}
		return c.Mgmt.CPUSeconds / float64(reqN)
	}
	s1 := cpuPerReq(1)
	s8 := cpuPerReq(8)
	if s8 > 0.7*s1 {
		t.Fatalf("management CPU per request: shards=1 %.1fµs, shards=8 %.1fµs — want >= 30%% drop",
			s1*1e6, s8*1e6)
	}
}

// TestNodeChurnDrainsGracefully drives the continuous node join/leave
// fault shape: churned nodes cordon (no new sessions), drain what they
// host, leave, and rejoin with a fresh lease. Under churn alone — no
// data-destroying faults — every request still completes with full
// coverage, because the graceful drain ships every in-flight session
// before the node goes away.
func TestNodeChurnDrainsGracefully(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 30
		cfg.Shards = 4
		cfg.Faults = faults.New(faults.Config{
			Seed: 13, ChurnMTBF: 20 * simtime.Second, ChurnDownMean: 500 * simtime.Millisecond,
		})
	})
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("r-%02d", i)
		c.Eng.AfterDetached(simtime.Duration(i)*200*simtime.Millisecond, func(simtime.Time) {
			if _, err := c.Request(name, TraceRequestSpec{
				App: "Agent", Purpose: coverage.PurposeAnomaly,
				Period: 300 * simtime.Millisecond, Deadline: 20 * simtime.Second,
			}); err != nil {
				t.Errorf("request %s: %v", name, err)
			}
		})
	}
	c.Run(12 * simtime.Second)

	fs := c.Cfg.Faults.Stats()
	if fs.Leaves == 0 || fs.Joins == 0 {
		t.Fatalf("churn never fired: leaves=%d joins=%d", fs.Leaves, fs.Joins)
	}
	for _, r := range c.API.List() {
		if r.Phase != PhaseCompleted {
			t.Fatalf("%s: phase %s (%s) under graceful churn", r.Name, r.Phase, r.Message)
		}
		if len(r.SessionKeys) != r.Planned {
			t.Fatalf("%s: %d/%d sessions under graceful churn", r.Name, len(r.SessionKeys), r.Planned)
		}
	}
	checkSafety(t, c)
}
