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
		ID:    "ctrlplane",
		Title: "Sharded control plane: reconcile throughput and latency curves to 100k nodes",
		Paper: "scale-out extension: shard the API server and range-lease the shards across replicas; throughput, Pending→Running latency, and per-request management CPU at 10k/30k/100k lite nodes",
		Run:   runCtrlPlaneExperiment,
	})
}

// ctrlCell is one point of the shard×replica×fleet matrix.
type ctrlCell struct {
	name     string
	nodes    int
	replicas int
	shards   int
	reqN     int
	fc       *faults.Config // nil: fault-free throughput cell
}

// ctrlOutcome is one cell's scorecard.
type ctrlOutcome struct {
	tally
	p50Ms       float64 // filing→Running latency percentiles
	p99Ms       float64
	makespanS   float64 // filing of the first request to the last terminal phase
	reqPerSec   float64 // terminal requests per makespan second
	syncsPerSec float64 // reconcile throughput over the makespan
	qMean       float64 // mean sampled aggregate work-queue depth
	qMax        int     // max sampled aggregate work-queue depth
	cpuPerReq   float64 // management CPU per filed request (seconds)
	avail       float64 // mean per-shard leader-lease availability
	rebalances  int     // shard ownership handovers after first election
	relists     int64
	readoptMs   float64
	maxOwners   int // max lease-valid owners ever sampled on one shard
	faults      faults.Stats
}

// rxs renders a replicas×shards configuration label.
func (cc ctrlCell) rxs() string { return fmt.Sprintf("r%d s%d", cc.replicas, cc.shards) }

// fileStart is when a cell's burst starts filing: after a 2 s pre-roll,
// so shard ownership has converged to the home assignment and the cells
// measure the steady-state protocol, not startup handbacks.
const fileStart = simtime.Time(2 * simtime.Second)

// ctrlRun declares one cell's lite fleet and its request burst. The whole
// burst files at a 10 µs stagger — a mass rollout hitting the API server
// all at once. Each request traces an 8-node stripe, stripes tiling the
// fleet. The burst outruns one owner's drain rate, so the single-shard
// queue builds; sharded owners drain it concurrently. The run goes in
// 250 ms steps until the burst fully drains (bounded at 90 s), sampling
// queue depth and shard owners every 20 ms.
func ctrlRun(cfg Config, agent workload.Profile, names []string, cell ctrlCell) fleetRun {
	ccfg := cluster.DefaultConfig()
	ccfg.Lite = true
	ccfg.Nodes = cell.nodes
	ccfg.CoresPerNode = 4
	ccfg.Seed = cfg.Seed
	ccfg.Replicas = cell.replicas
	ccfg.Shards = cell.shards
	if cell.fc != nil {
		ccfg.Faults = faults.New(*cell.fc)
		ccfg.RequestDeadline = 30 * simtime.Second
	}
	files := func() []filing {
		const width = 8
		fs := make([]filing, cell.reqN)
		for i := range fs {
			fs[i] = filing{
				at:   fileStart + simtime.Time(i)*simtime.Time(10*simtime.Microsecond),
				name: fmt.Sprintf("cp-%05d", i),
				spec: cluster.TraceRequestSpec{
					App:     "Agent",
					Purpose: coverage.PurposeAnomaly,
					Nodes:   stripe(names, i*width%cell.nodes, width),
					Period:  400 * simtime.Millisecond,
				},
			}
		}
		return fs
	}
	return fleetRun{
		name: "ctrlplane " + cell.name + " " + cell.rxs(), cfg: ccfg, app: agent, files: files,
		stop: simtime.Time(90 * simtime.Second), step: 250 * simtime.Millisecond,
		sampleFrom: fileStart + simtime.Time(20*simtime.Millisecond), sampleEvery: 20 * simtime.Millisecond,
	}
}

// readCtrl scores one finished cell's throughput, latency and management
// cost.
func readCtrl(_ int, f *fleet) ctrlOutcome {
	c := f.c
	out := ctrlOutcome{tally: f.tally, qMean: f.queueMean, qMax: f.queueMax, maxOwners: f.maxOwners,
		relists: c.Mgmt.Relists, faults: c.Cfg.Faults.Stats()}
	out.p50Ms = metrics.Percentile(f.runningMs, 50)
	out.p99Ms = metrics.Percentile(f.runningMs, 99)
	out.makespanS = (f.end - fileStart).Seconds()
	if out.makespanS > 0 {
		out.reqPerSec = float64(out.terminal) / out.makespanS
		out.syncsPerSec = float64(c.Mgmt.Syncs) / out.makespanS
	}
	if out.requests > 0 {
		out.cpuPerReq = c.Mgmt.CPUSeconds / float64(out.requests)
	}
	out.avail, _ = c.Leases.Availability(c.Eng.Now().Seconds())
	out.rebalances = c.ShardRebalances()
	out.readoptMs = metrics.Mean(c.Readopts)
	return out
}

// ctrlCells builds the cell matrix: a replicas×shards grid at the base
// fleet, scaling cells up the fleet axis, and chaos cells that force
// shard rebalances with controller crashes and node churn.
func ctrlCells(seed uint64, quick bool) []ctrlCell {
	reqFor := func(nodes int) int { return nodes / 4 }
	churn := func(off uint64) *faults.Config {
		return &faults.Config{
			Seed:              seed + off,
			CtrlCrashMTBF:     2 * simtime.Second,
			CtrlCrashDowntime: 500 * simtime.Millisecond,
			ChurnMTBF:         240 * simtime.Second,
			ChurnDownMean:     1 * simtime.Second,
		}
	}
	if quick {
		n := 2000
		return []ctrlCell{
			{name: "grid", nodes: n, replicas: 1, shards: 1, reqN: reqFor(n)},
			{name: "grid", nodes: n, replicas: 3, shards: 1, reqN: reqFor(n)},
			{name: "grid", nodes: n, replicas: 3, shards: 8, reqN: reqFor(n)},
			{name: "churn", nodes: n, replicas: 3, shards: 8, reqN: reqFor(n), fc: churn(41)},
		}
	}
	base := 10000
	cells := []ctrlCell{}
	for _, r := range []int{1, 3, 5} {
		for _, s := range []int{1, 8, 64} {
			cells = append(cells, ctrlCell{name: "grid", nodes: base, replicas: r, shards: s, reqN: reqFor(base)})
		}
	}
	cells = append(cells,
		ctrlCell{name: "scale", nodes: 30000, replicas: 3, shards: 1, reqN: reqFor(30000)},
		ctrlCell{name: "scale", nodes: 30000, replicas: 3, shards: 8, reqN: reqFor(30000)},
		ctrlCell{name: "scale", nodes: 100000, replicas: 3, shards: 1, reqN: reqFor(100000)},
		ctrlCell{name: "scale", nodes: 100000, replicas: 3, shards: 8, reqN: reqFor(100000)},
		ctrlCell{name: "scale", nodes: 100000, replicas: 5, shards: 64, reqN: reqFor(100000)},
		ctrlCell{name: "churn", nodes: base, replicas: 3, shards: 1, reqN: reqFor(base), fc: churn(40)},
		ctrlCell{name: "churn", nodes: base, replicas: 3, shards: 8, reqN: reqFor(base), fc: churn(41)},
	)
	return cells
}

func runCtrlPlaneExperiment(cfg Config) (*Result, error) {
	res := &Result{ID: "ctrlplane"}
	agent, err := workload.ByName("Agent")
	if err != nil {
		return nil, err
	}
	cells := ctrlCells(cfg.Seed, cfg.Quick)
	runs := make([]fleetRun, len(cells))
	names := map[int][]string{} // node names by fleet size, shared by the cells' stripes
	for i, cc := range cells {
		if names[cc.nodes] == nil {
			names[cc.nodes] = nodeNames(cc.nodes)
		}
		runs[i] = ctrlRun(cfg, agent, names[cc.nodes], cc)
	}
	outs, err := runFleets(cfg, runs, readCtrl)
	if err != nil {
		return nil, err
	}
	byCfg := func(name string, nodes, r, s int) *ctrlOutcome {
		for i, cc := range cells {
			if cc.name == name && cc.nodes == nodes && cc.replicas == r && cc.shards == s {
				return &outs[i]
			}
		}
		return nil
	}

	grid := &tabular.Table{
		Title: fmt.Sprintf("Replica×shard grid (%d lite nodes, %d requests filed in one burst)",
			cells[0].nodes, cells[0].reqN),
		Header: []string{"config", "terminal", "p50 ms", "p99 ms", "makespan s", "syncs/s",
			"queue mean/max", "cpu µs/req", "owners>1", "dup/unacct"},
	}
	scale := &tabular.Table{
		Title: "Scaling curves: fleet size up, single shard vs sharded",
		Header: []string{"nodes", "config", "requests", "p50 ms", "p99 ms", "makespan s",
			"syncs/s", "queue max", "cpu µs/req"},
	}
	chaosT := &tabular.Table{
		Title: "Forced shard rebalances: controller crashes + node churn (graceful leave/rejoin)",
		Header: []string{"config", "terminal", "completed", "degraded", "availability",
			"rebalances", "relists", "readopt ms", "leaves/joins", "dup/unacct"},
	}
	for i, cc := range cells {
		o := outs[i]
		tag := fmt.Sprintf("%s_r%d_s%d_%dk", cc.name, cc.replicas, cc.shards, cc.nodes/1000)
		switch cc.name {
		case "grid":
			grid.AddRow(cc.rxs(),
				fmt.Sprintf("%d/%d", o.terminal, o.requests),
				fmt.Sprintf("%.1f", o.p50Ms),
				fmt.Sprintf("%.1f", o.p99Ms),
				fmt.Sprintf("%.2f", o.makespanS),
				fmt.Sprintf("%.0f", o.syncsPerSec),
				fmt.Sprintf("%.0f/%d", o.qMean, o.qMax),
				fmt.Sprintf("%.1f", o.cpuPerReq*1e6),
				fmt.Sprintf("%d", boolToInt(o.maxOwners > 1)),
				fmt.Sprintf("%d/%d", o.dupKeys, o.unacct))
		case "scale":
			scale.AddRow(fmt.Sprintf("%d", cc.nodes), cc.rxs(),
				fmt.Sprintf("%d", o.requests),
				fmt.Sprintf("%.1f", o.p50Ms),
				fmt.Sprintf("%.1f", o.p99Ms),
				fmt.Sprintf("%.2f", o.makespanS),
				fmt.Sprintf("%.0f", o.syncsPerSec),
				fmt.Sprintf("%d", o.qMax),
				fmt.Sprintf("%.1f", o.cpuPerReq*1e6))
		case "churn":
			chaosT.AddRow(cc.rxs(),
				fmt.Sprintf("%d/%d", o.terminal, o.requests),
				fmt.Sprintf("%d", o.completed),
				fmt.Sprintf("%d", o.degraded),
				fmt.Sprintf("%.4f", o.avail),
				fmt.Sprintf("%d", o.rebalances),
				fmt.Sprintf("%d", o.relists),
				fmt.Sprintf("%.1f", o.readoptMs),
				fmt.Sprintf("%d/%d", o.faults.Leaves, o.faults.Joins),
				fmt.Sprintf("%d/%d", o.dupKeys, o.unacct))
		}
		res.Metric("p99_ms_"+tag, o.p99Ms)
		res.Metric("req_per_s_"+tag, o.reqPerSec)
		res.Metric("cpu_us_per_req_"+tag, o.cpuPerReq*1e6)
		if cc.name == "churn" {
			res.Metric("rebalances_"+tag, float64(o.rebalances))
			res.Metric("dup_sessions_"+tag, float64(o.dupKeys))
			res.Metric("unaccounted_"+tag, float64(o.unacct))
			res.Metric("availability_"+tag, o.avail)
		}
	}

	// Headline deltas at the base fleet: sharding the store and the work
	// across replicas must cut management CPU per request and tail
	// latency, not just move them around.
	baseN := cells[0].nodes
	if s1, s8 := byCfg("grid", baseN, 3, 1), byCfg("grid", baseN, 3, 8); s1 != nil && s8 != nil && s1.cpuPerReq > 0 {
		drop := 1 - s8.cpuPerReq/s1.cpuPerReq
		res.Metric("cpu_drop_r3_s8_vs_s1", drop)
		if s8.p99Ms > 0 {
			res.Metric("p99_speedup_r3_s8_vs_s1", s1.p99Ms/s8.p99Ms)
		}
		grid.Notes = append(grid.Notes,
			fmt.Sprintf("management CPU per request: %.1f µs (s1) → %.1f µs (s8) at r3: %.0f%% drop",
				s1.cpuPerReq*1e6, s8.cpuPerReq*1e6, drop*100))
	}
	grid.Notes = append(grid.Notes,
		"store writes pay a scan of the owning shard's live objects; sharding shrinks the scan (DESIGN.md §15)",
		"with one shard extra replicas add no throughput: one range lease means one drain; shards make replicas count",
		"owners>1: 1 if two lease-valid owners were ever sampled on one shard; safety demands 0")
	scale.Notes = append(scale.Notes,
		"requests scale with the fleet (fleet/4, 8-node stripes), so the burst stresses the store at every size")
	chaosT.Notes = append(chaosT.Notes,
		"rebalances: shard ownership handovers after first election (crash failovers + home-shard handbacks)",
		"churn: nodes cordon, drain in-flight sessions, leave, and rejoin with a fresh lease (faults.NextChurn)",
		"dup/unacct: duplicated session uploads / slots lost without accounting; both must be 0")
	res.Tables = append(res.Tables, grid, scale, chaosT)
	return res, nil
}

// boolToInt is 1 for true, 0 for false.
func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
