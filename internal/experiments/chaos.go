package experiments

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/metrics"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Chaos: replicated control plane under crash/partition/gray-failure storms at fleet scale",
		Paper: "robustness extension: 3 controller replicas over a 10k-node lite fleet; availability, failover, and coverage retained under injected storms",
		Run:   runChaosExperiment,
	})
}

// chaosOutcome is one scenario's scorecard.
type chaosOutcome struct {
	requests  int
	terminal  int
	completed int
	degraded  int
	failed    int
	shed      int64
	coverage  float64 // mean CoverageFraction over filed requests

	availability float64
	gaps         int
	elections    int
	failovers    int
	readoptMs    float64 // mean time for a new leader to re-adopt all in-flight requests
	maxLeaders   int     // max concurrently active leaders ever sampled

	dupKeys     int // duplicated session uploads (must be 0)
	unaccounted int // planned slots neither landed nor given up (must be 0 outside deadline expiry)

	nodeCrashes int64
	ctrlCrashes int64
	partitions  int64
	grayDelays  int64
	falseSusp   int64
	syncs       int64
	requeues    int64
	conflicts   int64
	fenced      int64
	resamples   int64
}

// chaosScenario names one fault shape; a nil config is the no-fault
// baseline every other scenario is scored against.
type chaosScenario struct {
	name string
	fc   *faults.Config
}

// chaosScenarios builds the storm matrix for a seed.
func chaosScenarios(seed uint64, quick bool) []chaosScenario {
	ctrl := &faults.Config{Seed: seed + 31, CtrlCrashMTBF: 3 * simtime.Second, CtrlCrashDowntime: 600 * simtime.Millisecond}
	part := &faults.Config{Seed: seed + 32, PartitionMTBF: 2 * simtime.Second, PartitionMeanDur: 400 * simtime.Millisecond}
	gray := &faults.Config{Seed: seed + 33, GrayNodeProb: 0.15, GrayDelayMean: 400 * simtime.Millisecond, ClockSkewMax: 50 * simtime.Millisecond}
	storm := &faults.Config{
		Seed:              seed + 34,
		CrashMTBF:         60 * simtime.Second,
		CrashDowntime:     1 * simtime.Second,
		CtrlCrashMTBF:     3 * simtime.Second,
		CtrlCrashDowntime: 600 * simtime.Millisecond,
		PartitionMTBF:     2 * simtime.Second,
		PartitionMeanDur:  400 * simtime.Millisecond,
		GrayNodeProb:      0.15,
		GrayDelayMean:     400 * simtime.Millisecond,
		ClockSkewMax:      50 * simtime.Millisecond,
		SessionLossProb:   0.03,
		PutFailProb:       0.05,
	}
	if quick {
		return []chaosScenario{
			{"no-fault", nil},
			{"ctrl-crash", ctrl},
			{"full storm", storm},
		}
	}
	return []chaosScenario{
		{"no-fault", nil},
		{"ctrl-crash", ctrl},
		{"partition", part},
		{"gray+skew", gray},
		{"full storm", storm},
	}
}

// runChaosScenario drives one replicated lite fleet through a request
// stream under the given fault shape and scores the run.
func runChaosScenario(cfg Config, nodes int, fc *faults.Config) (chaosOutcome, error) {
	ccfg := cluster.DefaultConfig()
	ccfg.Lite = true
	ccfg.Nodes = nodes
	ccfg.CoresPerNode = 4
	ccfg.Seed = cfg.Seed
	ccfg.Replicas = 3
	if fc != nil {
		ccfg.Faults = faults.New(*fc)
	}
	c := cluster.New(ccfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		return chaosOutcome{}, err
	}
	if err := c.Deploy(agent, nil, workload.InstallOpts{}); err != nil {
		return chaosOutcome{}, err
	}

	// Each request traces a 24-node stripe of the fleet; stripes stride
	// across it so failures anywhere land on someone's request.
	reqN := 60
	stripe := 24
	if cfg.Quick {
		reqN = 16
	}
	var reqs []*cluster.TraceRequest
	for i := 0; i < reqN; i++ {
		name := fmt.Sprintf("trace-%03d", i)
		names := make([]string, 0, stripe)
		start := (i * 397) % nodes
		for j := 0; j < stripe; j++ {
			names = append(names, fmt.Sprintf("node-%d", (start+j)%nodes))
		}
		at := simtime.Time(i) * simtime.Time(300*simtime.Millisecond)
		c.Eng.Schedule(at, func(simtime.Time) {
			r, err := c.Request(name, cluster.TraceRequestSpec{
				App:     "Agent",
				Purpose: coverage.PurposeAnomaly,
				Nodes:   names,
				Period:  500 * simtime.Millisecond,
			})
			if err == nil {
				reqs = append(reqs, r)
			}
		})
	}

	// Safety probe: sample each shard's fencing-valid owner count through
	// the run; the chaos cluster has one shard, so this is its leader count.
	out := chaosOutcome{}
	var sample func(now simtime.Time)
	horizon := simtime.Time(reqN)*simtime.Time(300*simtime.Millisecond) + 15*simtime.Second
	sample = func(now simtime.Time) {
		for s := 0; s < c.API.Shards(); s++ {
			out.maxLeaders = max(out.maxLeaders, c.ActiveOwnersShard(s, now))
		}
		if now < horizon {
			c.Eng.AfterDetached(10*simtime.Millisecond, sample)
		}
	}
	c.Eng.AfterDetached(10*simtime.Millisecond, sample)

	c.Run(horizon)

	out.requests = len(reqs)
	var covSum float64
	seen := make(map[string]bool)
	for _, r := range reqs {
		if r.Phase.Terminal() {
			out.terminal++
		}
		switch r.Phase {
		case cluster.PhaseCompleted:
			out.completed++
		case cluster.PhaseDegraded:
			out.degraded++
		case cluster.PhaseFailed:
			out.failed++
		}
		covSum += r.CoverageFraction()
		for _, k := range r.SessionKeys {
			if seen[k] {
				out.dupKeys++
			}
			seen[k] = true
		}
		// Slot accounting: outside deadline expiry (which abandons
		// in-flight slots by design) every planned slot must be landed
		// or given up — nothing silently lost.
		if r.Planned > 0 && !expiredByDeadline(r) {
			if diff := r.Planned - len(r.SessionKeys) - r.Lost; diff > 0 {
				out.unaccounted += diff
			}
		}
	}
	if len(reqs) > 0 {
		out.coverage = covSum / float64(len(reqs))
	}
	out.availability, out.gaps = c.Leases.Availability(c.Eng.Now().Seconds())
	out.elections = c.Leases.Elections()
	out.failovers = c.Leases.Failovers()
	out.readoptMs = metrics.Mean(c.Readopts)
	out.shed = c.Mgmt.Shed
	out.syncs = c.Mgmt.Syncs
	out.requeues = c.Mgmt.Requeues
	out.conflicts = c.Mgmt.Conflicts
	out.fenced = c.Mgmt.FencedOps
	out.falseSusp = c.Mgmt.FalseSuspicions
	out.resamples = c.Mgmt.Resamples
	fs := c.Cfg.Faults.Stats()
	out.nodeCrashes = fs.Crashes
	out.ctrlCrashes = fs.CtrlCrashes
	out.partitions = fs.Partitions
	out.grayDelays = fs.GrayDelays
	return out, nil
}

// expiredByDeadline reports whether the request was forced terminal by
// its deadline (abandoning in-flight slots).
func expiredByDeadline(r *cluster.TraceRequest) bool {
	return len(r.Message) >= 17 && r.Message[:17] == "deadline exceeded"
}

func runChaosExperiment(cfg Config) (*Result, error) {
	res := &Result{ID: "chaos"}
	nodes := 10000
	if cfg.Quick {
		nodes = 1500
	}
	scenarios := chaosScenarios(cfg.Seed, cfg.Quick)

	t1 := &tabular.Table{
		Title: fmt.Sprintf("Replicated control plane (3 replicas, %d lite nodes): chaos scenario comparison", nodes),
		Header: []string{"scenario", "terminal", "completed", "degraded", "availability", "failovers",
			"readopt ms", "max leaders", "coverage", "retained", "dup/unacct"},
	}
	var baseline float64
	for _, sc := range scenarios {
		out, err := runChaosScenario(cfg, nodes, sc.fc)
		if err != nil {
			return nil, err
		}
		if sc.fc == nil {
			baseline = out.coverage
		}
		retained := 1.0
		if baseline > 0 {
			retained = out.coverage / baseline
		}
		t1.AddRow(
			sc.name,
			fmt.Sprintf("%d/%d", out.terminal, out.requests),
			fmt.Sprintf("%d", out.completed),
			fmt.Sprintf("%d", out.degraded),
			fmt.Sprintf("%.4f", out.availability),
			fmt.Sprintf("%d", out.failovers),
			fmt.Sprintf("%.1f", out.readoptMs),
			fmt.Sprintf("%d", out.maxLeaders),
			fmt.Sprintf("%.3f", out.coverage),
			fmt.Sprintf("%.3f", retained),
			fmt.Sprintf("%d/%d", out.dupKeys, out.unaccounted),
		)
		tag := tagFor(sc.name)
		res.Metric("terminal_frac_"+tag, frac(out.terminal, out.requests))
		res.Metric("availability_"+tag, out.availability)
		res.Metric("coverage_retained_"+tag, retained)
		res.Metric("failovers_"+tag, float64(out.failovers))
		res.Metric("readopt_ms_"+tag, out.readoptMs)
		res.Metric("max_leaders_"+tag, float64(out.maxLeaders))
		res.Metric("dup_sessions_"+tag, float64(out.dupKeys))

		if sc.name == "full storm" {
			t2 := &tabular.Table{
				Title:  "Full-storm control-plane counters (the machinery holding the line)",
				Header: []string{"counter", "value"},
			}
			t2.AddRow("node crashes", fmt.Sprintf("%d", out.nodeCrashes))
			t2.AddRow("controller crashes", fmt.Sprintf("%d", out.ctrlCrashes))
			t2.AddRow("controller-store partitions", fmt.Sprintf("%d", out.partitions))
			t2.AddRow("gray heartbeat delays", fmt.Sprintf("%d", out.grayDelays))
			t2.AddRow("false suspicions (live node, lapsed lease)", fmt.Sprintf("%d", out.falseSusp))
			t2.AddRow("leader elections", fmt.Sprintf("%d", out.elections))
			t2.AddRow("leadership gaps", fmt.Sprintf("%d", out.gaps))
			t2.AddRow("work-queue syncs", fmt.Sprintf("%d", out.syncs))
			t2.AddRow("rate-limited requeues", fmt.Sprintf("%d", out.requeues))
			t2.AddRow("CAS conflicts", fmt.Sprintf("%d", out.conflicts))
			t2.AddRow("fenced stale-leader ops", fmt.Sprintf("%d", out.fenced))
			t2.AddRow("sessions re-sampled", fmt.Sprintf("%d", out.resamples))
			t2.AddRow("requests shed by admission", fmt.Sprintf("%d", out.shed))
			t2.Notes = append(t2.Notes,
				"every fault decision is seeded and keyed by stable identifiers: reruns inject the identical storm")
			res.Tables = append(res.Tables, t2)
		}
	}
	t1.Notes = append(t1.Notes,
		"availability: fraction of the run some controller held a valid leader lease",
		"readopt ms: mean time for a new leader to re-adopt every in-flight request after a failover",
		"max leaders: highest concurrently active (lease-valid) leader count ever sampled; safety demands 1",
		"dup/unacct: duplicated session uploads / planned slots lost without accounting; both must be 0",
		"retained: mean coverage fraction vs the no-fault baseline")
	res.Tables = append(res.Tables, t1)
	return res, nil
}

// tagFor turns a scenario name into a metric tag.
func tagFor(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
