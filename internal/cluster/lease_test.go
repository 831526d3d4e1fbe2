package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"exist/internal/faults"
	"exist/internal/simtime"
)

// leaseDigest is the SHA-256 of leaseTrace's output as recorded from the
// per-node heartbeat loops (one renewal timer per node, one crash and
// one churn closure chain per node), before the lease sweep and the
// node-fault timetable replaced them. It keeps that implementation as the
// reference the cluster-level liveness bookkeeping must reproduce.
const leaseDigest = "f73d9e91508137b32e3a8ada0c23c43c71fb520314ddd3d8c80e87495196ac0a"

// leaseTrace runs a 64-node Lite cluster for 20 s under every node-fault
// shape at once — gray nodes, short crash and churn MTBFs, controller
// crashes — and hashes each node's health bit every 10 ms, then the
// lease-expiry and false-suspicion counts and the injector's crash,
// leave, join and gray-delay counts.
func leaseTrace(t *testing.T) string {
	t.Helper()
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 64
		cfg.Seed = 5
		cfg.Faults = faults.New(faults.Config{
			Seed:          5,
			CrashMTBF:     3 * simtime.Second,
			CrashDowntime: 700 * simtime.Millisecond,
			ChurnMTBF:     4 * simtime.Second,
			ChurnDownMean: 500 * simtime.Millisecond,
			CtrlCrashMTBF: 2 * simtime.Second,
			GrayNodeProb:  0.25,
			GrayDelayMean: 400 * simtime.Millisecond,
		})
	})
	h := sha256.New()
	bits := make([]byte, len(c.Nodes))
	for now := simtime.Time(0); now <= 20*simtime.Second; now += 10 * simtime.Millisecond {
		c.Run(now)
		for i, n := range c.Nodes {
			bits[i] = 0
			if c.nodeHealthy(n, now) {
				bits[i] = 1
			}
		}
		h.Write(bits)
	}
	st := c.Cfg.Faults.Stats()
	if st.Crashes == 0 || st.Leaves == 0 || st.GrayDelays == 0 || c.Mgmt.LeaseExpiries == 0 || c.Mgmt.FalseSuspicions == 0 {
		t.Fatalf("a fault shape never fired: %+v, expiries %d, false suspicions %d",
			st, c.Mgmt.LeaseExpiries, c.Mgmt.FalseSuspicions)
	}
	fmt.Fprintf(h, "expiries=%d suspicions=%d crashes=%d leaves=%d joins=%d graydelays=%d",
		c.Mgmt.LeaseExpiries, c.Mgmt.FalseSuspicions, st.Crashes, st.Leaves, st.Joins, st.GrayDelays)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLeasesMatchReference is the liveness contract: every node's health
// bit at every sample, and every lease and fault counter, match the
// recorded per-node-timer reference.
func TestLeasesMatchReference(t *testing.T) {
	if got := leaseTrace(t); got != leaseDigest {
		t.Errorf("lease trace digest %s, want %s", got, leaseDigest)
	}
}

// TestCrashAtBeatInstant pins the one tie the lease sweep decides: a
// crash at exactly a heartbeat instant counts that beat only if the beat
// ran first. A crash armed before the sweep for that instant fires first
// and freezes the previous beat's lease; one armed after it fires second
// and keeps the fresh renewal.
func TestCrashAtBeatInstant(t *testing.T) {
	const (
		beat = 200 * simtime.Millisecond
		ttl  = 500 * simtime.Millisecond
		at   = 5 * beat
	)
	for _, tc := range []struct {
		name      string
		armAt     simtime.Time // when the crash at `at` is scheduled
		leaseEnds simtime.Time // the frozen lease's expiry
	}{
		{"crash-first", 0, at - beat + ttl},
		{"beat-first", at - beat/2, at + ttl},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := liteCluster(t, func(cfg *Config) {
				cfg.Nodes = 4
				cfg.Faults = faults.New(faults.Config{Seed: 1})
			})
			n := c.Nodes[2]
			c.Run(tc.armAt)
			c.Eng.Schedule(at, func(simtime.Time) { c.crashNode(n) })
			c.Run(at)
			if !n.Down {
				t.Fatal("crash did not fire")
			}
			for _, probe := range []simtime.Time{at, tc.leaseEnds - 1, tc.leaseEnds} {
				c.Run(probe)
				if got, want := c.nodeHealthy(n, probe), probe < tc.leaseEnds; got != want {
					t.Errorf("healthy at %v = %v, want %v (lease ends %v)", probe, got, want, tc.leaseEnds)
				}
			}
			// The first sweep at or after the lapse counts it, once.
			detect := (tc.leaseEnds + beat - 1) / beat * beat
			c.Run(detect - 1)
			if c.Mgmt.LeaseExpiries != 0 {
				t.Fatalf("expiry counted before %v", detect)
			}
			c.Run(detect + 5*beat)
			if c.Mgmt.LeaseExpiries != 1 {
				t.Fatalf("lease expiries = %d, want 1", c.Mgmt.LeaseExpiries)
			}
			for _, m := range c.Nodes {
				if m != n && !c.nodeHealthy(m, c.Eng.Now()) {
					t.Errorf("%s lost its lease; only %s crashed", m.Name, n.Name)
				}
			}
		})
	}
}

// TestLivenessEventsDoNotScale pins the point of the lease sweep and the
// node-fault timetable: a fleet with the fleet workload's faults (gray
// nodes, churn, controller crashes) and no requests keeps a pending-event
// count far below its node count. Per-node heartbeat and churn timers
// held about two events per node.
func TestLivenessEventsDoNotScale(t *testing.T) {
	const nodes = 20_000
	cfg := DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = nodes
	cfg.CoresPerNode = 4
	cfg.Replicas = 3
	cfg.Shards = 8
	cfg.Faults = faults.New(faults.Config{
		Seed:              1,
		CtrlCrashMTBF:     2 * simtime.Second,
		CtrlCrashDowntime: 500 * simtime.Millisecond,
		ChurnMTBF:         240 * simtime.Second,
		ChurnDownMean:     simtime.Second,
		GrayNodeProb:      0.01,
	})
	c := New(cfg)
	c.Run(2 * simtime.Second)
	if got := c.Eng.Len(); got >= nodes/10 {
		t.Fatalf("%d pending events for %d nodes, want fewer than %d", got, nodes, nodes/10)
	}
	if c.Cfg.Faults.Stats().GrayDelays == 0 {
		t.Fatal("no gray beats in 2 s; the fixture lost its gray nodes")
	}
}
