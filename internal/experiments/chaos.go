package experiments

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/metrics"
	"exist/internal/obs"
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
	tally
	availability float64
	gaps         int
	elections    int
	failovers    int
	readoptMs    float64 // mean time for a new leader to re-adopt all in-flight requests
	maxLeaders   int     // max concurrently active leaders ever sampled
	mgmt         cluster.MgmtStats
	faults       faults.Stats
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

// chaosRuns declares one replicated lite fleet per scenario, each driven
// through the same request stream under the scenario's fault shape.
func chaosRuns(cfg Config, nodes int, scenarios []chaosScenario) ([]fleetRun, error) {
	agent, err := workload.ByName("Agent")
	if err != nil {
		return nil, err
	}
	// Each request traces a 24-node stripe of the fleet; stripes stride
	// across it so failures anywhere land on someone's request.
	reqN := 60
	if cfg.Quick {
		reqN = 16
	}
	names := nodeNames(nodes)
	files := func() []filing {
		fs := make([]filing, reqN)
		for i := range fs {
			fs[i] = filing{
				at:   simtime.Time(i) * simtime.Time(300*simtime.Millisecond),
				name: fmt.Sprintf("trace-%03d", i),
				spec: cluster.TraceRequestSpec{
					App:     "Agent",
					Purpose: coverage.PurposeAnomaly,
					Nodes:   stripe(names, i*397%nodes, 24),
					Period:  500 * simtime.Millisecond,
				},
			}
		}
		return fs
	}
	runs := make([]fleetRun, len(scenarios))
	for i, sc := range scenarios {
		ccfg := cluster.DefaultConfig()
		ccfg.Lite = true
		ccfg.Nodes = nodes
		ccfg.CoresPerNode = 4
		ccfg.Seed = cfg.Seed
		ccfg.Replicas = 3
		if sc.fc != nil {
			ccfg.Faults = faults.New(*sc.fc)
		}
		// The safety probe samples each shard's fencing-valid owner count
		// through the run; the chaos cluster has one shard, so this is its
		// leader count.
		runs[i] = fleetRun{
			name: "chaos " + sc.name, cfg: ccfg, app: agent, files: files,
			stop:       simtime.Time(reqN)*simtime.Time(300*simtime.Millisecond) + 15*simtime.Second,
			sampleFrom: simtime.Time(10 * simtime.Millisecond), sampleEvery: 10 * simtime.Millisecond,
		}
	}
	return runs, nil
}

// readChaos scores one finished chaos fleet.
func readChaos(_ int, f *fleet) chaosOutcome {
	c := f.c
	out := chaosOutcome{tally: f.tally, maxLeaders: f.maxOwners, mgmt: c.Mgmt, faults: c.Cfg.Faults.Stats()}
	out.availability, out.gaps = c.Leases.Availability(c.Eng.Now().Seconds())
	out.elections = c.Leases.Elections()
	out.failovers = c.Leases.Failovers()
	out.readoptMs = metrics.Mean(c.Readopts)
	return out
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
	runs, err := chaosRuns(cfg, nodes, scenarios)
	if err != nil {
		return nil, err
	}
	outs, err := runFleets(cfg, runs, readChaos)
	if err != nil {
		return nil, err
	}
	var baseline float64
	for i, sc := range scenarios {
		out := outs[i]
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
			fmt.Sprintf("%d/%d", out.dupKeys, out.unacct),
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
				Header: []string{"counter", "value", "unit"},
			}
			for _, c := range append(obs.Counters("faults.", out.faults), obs.Counters("cluster.", out.mgmt)...) {
				t2.AddRow(c.Name, c.Text(), c.Unit)
			}
			t2.AddRow("leader elections", fmt.Sprintf("%d", out.elections), "count")
			t2.AddRow("leadership gaps", fmt.Sprintf("%d", out.gaps), "count")
			t2.Notes = append(t2.Notes,
				"every fault decision is seeded and keyed by stable identifiers: reruns inject the identical storm",
				"leader elections, leadership gaps: per-shard lease acquisitions and lapses, read from the lease store")
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
