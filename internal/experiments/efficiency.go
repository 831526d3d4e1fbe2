package experiments

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/core"
	"exist/internal/coverage"
	"exist/internal/node"
	"exist/internal/service"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig15",
		Title: "Figure 15: tracing overhead on cloud applications (CPI and utilization)",
		Paper: "EXIST ~1.1% utilization increase and ~2.2% CPI overhead; overall per-app overhead 1.3-3.2%",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Figure 16: end-to-end response time of Search1 under tracing schemes",
		Paper: "EXIST p99 slowdown 0.9-2.7% vs 3-59% for baselines; gap widens with load",
		Run:   runFig16,
	})
	register(Experiment{
		ID:    "tab04",
		Title: "Table 4: space efficiency (MB per 0.5 s window)",
		Paper: "EXIST ~55 MB on SPEC, bounded by budget on online; NHT time-proportional and larger",
		Run:   runTab04,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Figure 17: startup and cluster-orchestration overheads",
		Paper: "0.05-core insmod spike; RCO needs <3e-3 cores and ~40 MB for ten nodes; <1 permille at scale",
		Run:   runFig17,
	})
}

func runFig15(cfg Config) (*Result, error) {
	apps := workload.CloudApps()
	dur := durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)
	res := &Result{ID: "fig15"}
	t := &tabular.Table{
		Title:  "Figure 15: tracing overhead on cloud applications (CPI overhead at low/high load, CPU-utilization increase)",
		Header: []string{"app", "scheme", "CPI ovh (low)", "CPI ovh (high)", "util increase (pts)"},
	}
	schemes := []SchemeKind{SchemeEXIST, SchemeStaSam, SchemeEBPF, SchemeNHT}
	// Per app, Oracle then each scheme, each at low and high thread
	// counts. Every cell of an app seeds from the app index alone (paired
	// comparisons need identical workload realizations).
	perApp := 2 * (1 + len(schemes))
	var cells []cell
	for ai, app := range apps {
		lowThreads := max(app.Threads/4, 1)
		for _, s := range append([]SchemeKind{SchemeOracle}, schemes...) {
			for _, threads := range []int{lowThreads, app.Threads} {
				cells = append(cells, cell{app, s, node.Spec{
					Cores: 8, Dur: dur, Seed: 1500 + uint64(ai), Threads: threads,
				}})
			}
		}
	}
	rs, err := runCells(cfg, cells, numbers)
	if err != nil {
		return nil, err
	}
	var existUtilSum float64
	for ai, app := range apps {
		runs := rs[ai*perApp : (ai+1)*perApp]
		baseLow, baseHigh := runs[0], runs[1]
		for si, s := range schemes {
			low, high := runs[2+2*si], runs[3+2*si]
			cpiLow := low.CPI/baseLow.CPI - 1
			cpiHigh := high.CPI/baseHigh.CPI - 1
			utilPts := (high.UtilFrac - baseHigh.UtilFrac) * 100
			t.AddRow(app.Name, s.String(), pct(cpiLow), pct(cpiHigh), fmt.Sprintf("%.2f", utilPts))
			if s == SchemeEXIST {
				existUtilSum += utilPts
				res.Metric("exist_cpi_high_"+app.Name, cpiHigh)
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: EXIST induces ~1.1% average utilization increase (2.4x/2.8x/12.2x better than baselines)",
		"CPU-set Search1 shows the smallest EXIST overhead (bounded scheduling; maximal per-core buffers)")
	res.Metric("exist_avg_util_pts", existUtilSum/float64(len(apps)))
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig16(cfg Config) (*Result, error) {
	s1, err := workload.ByName("Search1")
	if err != nil {
		return nil, err
	}
	dur := durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)
	rows, err := schemeRows(cfg, []workload.Profile{s1}, []node.Spec{{Cores: 8, Dur: dur, Seed: 1600}}, node.Result.Inflation)
	if err != nil {
		return nil, err
	}
	inflation := rows[s1.Name]

	res := &Result{ID: "fig16"}
	t := &tabular.Table{
		Title:  "Figure 16: end-to-end p99 response time (ms) tracing Search1, and slowdown vs Oracle",
		Header: []string{"load", "Oracle", "EXIST", "StaSam", "eBPF", "NHT"},
	}
	reps := 3
	if !cfg.Quick {
		reps = 8
	}
	svcDur := durQuick(cfg, 4*simtime.Second, 15*simtime.Second)
	loads := []float64{1e2, 1e3, 1e4}
	for _, load := range loads {
		// Search1 is deployed on the ten-node evaluation cluster, so the
		// cluster-wide load spreads over its instances (Load=1e4 drives
		// one instance near saturation, as the paper's Figure 16 shows).
		rate := load / 11
		d := svcDur
		if want := simtime.Duration(float64(minRequests(cfg)) / rate * float64(simtime.Second)); want > d {
			d = want
		}
		oracleSum := avgSummariesRate(cfg, rate, d, reps, nil)
		row := []string{fmt.Sprintf("Load=%.0e", load), fmt.Sprintf("%.1f", oracleSum.P99)}
		for _, s := range []SchemeKind{SchemeEXIST, SchemeStaSam, SchemeEBPF, SchemeNHT} {
			ov := schemeServiceOverheadSingleTier(s, inflation[s])
			sum := avgSummariesRate(cfg, rate, d, reps, ov)
			slow := sum.P99/oracleSum.P99 - 1
			row = append(row, fmt.Sprintf("%.1f (%s)", sum.P99, pct(slow)))
			if s == SchemeEXIST && load == 1e4 {
				res.Metric("exist_p99_slowdown_1e4", slow)
			}
			if s == SchemeNHT && load == 1e4 {
				res.Metric("nht_p99_slowdown_1e4", slow)
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: EXIST 0.9/1.5/2.7% p99 slowdown at loads 1e2/1e3/1e4; NHT reaches 19-59%",
		"single-point tracing overhead amplifies end-to-end through tens of RPCs per request")
	res.Tables = append(res.Tables, t)
	return res, nil
}

// schemeServiceOverheadSingleTier maps node overhead onto the traced
// service's tier only (Figure 16 traces just Search1 within the chain).
func schemeServiceOverheadSingleTier(s SchemeKind, frac float64) []service.Overhead {
	ov := schemeServiceOverhead(s, frac, 2)
	return ov[1:2]
}

func runTab04(cfg Config) (*Result, error) {
	// 0.5 s windows, 4 threads on 4 cores (the paper's Table 4 setup).
	dur := 500 * simtime.Millisecond
	workloads := workload.SPEC()
	workloads = append(workloads, workload.OnlineBenchmarks()...)

	res := &Result{ID: "tab04"}
	t := &tabular.Table{
		Title:  "Table 4: space efficiency in MB for a 0.5 s window (4 cores)",
		Header: []string{"workload", "StaSam", "eBPF", "NHT", "EXIST"},
	}
	agent, err := workload.ByName("Agent")
	if err != nil {
		return nil, err
	}
	schemes := []SchemeKind{SchemeStaSam, SchemeEBPF, SchemeNHT, SchemeEXIST}
	var shown []workload.Profile
	var cells []cell
	for wi, p := range workloads {
		if cfg.Quick && wi%3 != 0 && p.Class == workload.Compute {
			continue // sample the suite in quick mode
		}
		shown = append(shown, p)
		// The profile's own thread count runs on four cores, with the
		// node agent co-located: NHT's unfiltered tracers capture the
		// co-runner too, while EXIST's CR3 filter excludes it.
		for _, s := range schemes {
			cells = append(cells, cell{p, s, node.Spec{
				Cores: 4, Dur: dur, Seed: 1700 + uint64(wi),
				TargetCores: []int{0, 1, 2, 3},
				CoRunners:   coRunners([]workload.Profile{agent}, [][]int{{0, 1, 2, 3}}),
				MemBudget:   500 << 20,
			}})
		}
	}
	mbs, err := runCells(cfg, cells, func(_ int, r node.Result) float64 { return r.SpaceMB })
	if err != nil {
		return nil, err
	}
	for pi, p := range shown {
		row := []string{p.Name}
		for si, s := range schemes {
			mb := mbs[pi*len(schemes)+si]
			row = append(row, fmt.Sprintf("%.1f", mb))
			switch s {
			case SchemeEXIST:
				res.Metric("exist_mb_"+p.Name, mb)
			case SchemeNHT:
				res.Metric("nht_mb_"+p.Name, mb)
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"StaSam stores sampled stacks and eBPF stores sys_enter records: small but non-chronological/instruction-blind",
		"NHT covers all cores continuously (time-proportional); EXIST keeps traces within the memory budget via per-core caps and compulsory drop",
		"paper: e.g. om — StaSam 4.6, eBPF 0.2, NHT 72.1, EXIST 54.9 MB")
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig17(cfg Config) (*Result, error) {
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = cfg.Seed
	if cfg.Quick {
		ccfg.Nodes = 4
		ccfg.CoresPerNode = 4
	}
	agent, err := workload.ByName("Agent")
	if err != nil {
		return nil, err
	}
	// Periodic tracing: a request every second, as in the paper's
	// periodical tracing scenario.
	total := durQuick(cfg, 3*simtime.Second, 10*simtime.Second)
	files := func() []filing {
		var fs []filing
		for i := simtime.Duration(0); i < total/simtime.Second; i++ {
			fs = append(fs, filing{at: simtime.Time(i) * simtime.Second, name: fmt.Sprintf("periodic-%d", i),
				spec: cluster.TraceRequestSpec{App: "Agent", Purpose: coverage.PurposeProfiling, Period: 200 * simtime.Millisecond}})
		}
		return fs
	}
	type orchestration struct {
		mgmtCores, memMB float64
		puts, v1Bytes    int64
	}
	outs, err := runFleets(cfg, []fleetRun{{name: "fig17", cfg: ccfg, app: agent,
		opts: workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: cfg.Seed}, files: files, stop: simtime.Time(total)}},
		func(_ int, f *fleet) orchestration {
			return orchestration{f.c.ManagementCores(), f.c.Mgmt.MemMB, f.c.OSS.Puts(), f.c.Uploads.V1Bytes}
		})
	if err != nil {
		return nil, err
	}
	o := outs[0]

	res := &Result{ID: "fig17"}
	t := &tabular.Table{
		Title:  "Figure 17: EXIST startup and orchestration overheads",
		Header: []string{"component", "value"},
	}
	t.AddRow("insmod startup cost (one-time, per node)", core.InsmodCost.String())
	t.AddRow(fmt.Sprintf("RCO management CPU (%d nodes)", ccfg.Nodes), fmt.Sprintf("%.2e cores", o.mgmtCores))
	t.AddRow("RCO management memory", fmt.Sprintf("%.0f MB", o.memMB))
	// Report v1-equivalent volume: the figure tracks how much trace data
	// the deployment produced, independent of the wire encoding shipping
	// it (Uploads.WireBytes is the compressed v2 volume actually stored).
	t.AddRow("trace sessions uploaded", fmt.Sprintf("%d (%.1f KB)", o.puts, float64(o.v1Bytes)/1024))
	// Extrapolate to a thousand-node cluster: management grows with
	// active requests, giving per-node cost.
	perNode := o.mgmtCores / float64(ccfg.Nodes)
	thousand := perNode * 1000
	permille := thousand / 1000 * 1000 // cores per thousand cores of capacity... expressed in permille of one core per node
	t.AddRow("extrapolated management for 1000 nodes", fmt.Sprintf("%.2e cores (%.3f permille/node)", thousand, permille))
	t.Notes = append(t.Notes,
		"paper: <3e-3 cores and ~40 MB for the ten-node cluster; <1 permille management overhead at thousand-node scale")
	res.Metric("mgmt_cores", o.mgmtCores)
	res.Metric("oss_puts", float64(o.puts))
	res.Tables = append(res.Tables, t)
	return res, nil
}
