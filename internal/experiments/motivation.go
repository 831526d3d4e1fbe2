package experiments

import (
	"fmt"

	"exist/internal/cpu"
	"exist/internal/metrics"
	"exist/internal/node"
	"exist/internal/sched"
	"exist/internal/service"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig03a",
		Title: "Figure 3a: tracing overhead in shared scenarios",
		Paper: "sampling 4.3->4.4%, IPT 6.1->7.6% going exclusive->shared; innocent co-runner slows 2.1-3.1%",
		Run:   runFig03a,
	})
	register(Experiment{
		ID:    "fig03b",
		Title: "Figure 3b: E2E response-time slowdown under workload stress",
		Paper: "a ~2% single-service overhead exceeds 10% E2E tail degradation at high load",
		Run:   runFig03b,
	})
	register(Experiment{
		ID:    "fig04",
		Title: "Figure 4: software/hardware events with co-location and tracing",
		Paper: "context switches and kernel time grow sharply with co-location under tracing; LLC misses +1.3% only",
		Run:   runFig04,
	})
	register(Experiment{
		ID:    "fig05",
		Title: "Figure 5: isolating the multiplexed resource behind tracing overhead",
		Paper: "no single resource dominates: HT/core/LLC sharing add 1.4%/1.5%/1.0% tracing slowdown",
		Run:   runFig05,
	})
	register(Experiment{
		ID:    "fig08",
		Title: "Figure 8: context-switch period distributions",
		Paper: "50%/85%/98% of all switches within 0.01/0.1/1 ms; per-core and per-process curves shift right",
		Run:   runFig08,
	})
}

func runFig03a(cfg Config) (*Result, error) {
	a, ns, err := figureSpec("fig03a")
	if err != nil {
		return nil, err
	}
	ns.Dur = durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)
	exclusive := ns
	exclusive.CoRunners = nil

	// Six distinct runs: pod A alone and pod A sharing its cores with pod B
	// (the xz co-runner), each under Oracle, sampling and IPT tracing. The
	// shared runs serve both pod A's and pod B's rows.
	schemes := []SchemeKind{SchemeOracle, SchemeStaSam, SchemeNHT}
	var cells []cell
	for _, spec := range []node.Spec{exclusive, ns} {
		for _, s := range schemes {
			cells = append(cells, cell{a, s, spec})
		}
	}
	type podRun struct {
		a     node.Result
		bCycs int64
	}
	runs, err := runCells(cfg, cells, func(i int, r node.Result) podRun {
		out := podRun{a: numbers(i, r)}
		for _, p := range r.Machine.Procs {
			if p.Name == "xz" {
				out.bCycs = p.Stats().Cycles
			}
		}
		return out
	})
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "fig03a"}
	t := &tabular.Table{
		Title:  "Figure 3a: execution-time slowdown of profiling in exclusive vs shared pods",
		Header: []string{"setting", "Sampling F=4000", "Tracing w/ IPT"},
	}
	for k, row := range []struct{ name, metric string }{
		{"Exclusive Pod A w/ Profiling", "exclusive_ipt"},
		{"Shared Pod A w/ Profiling", "shared_ipt"},
	} {
		base, sam, ipt := runs[3*k], runs[3*k+1], runs[3*k+2]
		iptSlow := ipt.a.Overhead(base.a)
		t.AddRow(row.name, pct(sam.a.Overhead(base.a)), pct(iptSlow))
		res.Metric(row.metric, iptSlow)
	}
	// The innocent co-located pod.
	baseB, samB, iptB := runs[3].bCycs, runs[4].bCycs, runs[5].bCycs
	samLoss := float64(baseB)/float64(samB) - 1
	iptLoss := float64(baseB)/float64(iptB) - 1
	t.AddRow("Shared Pod B w/o Profiling", pct(samLoss), pct(iptLoss))
	t.Notes = append(t.Notes,
		"paper: sampling 4.3/4.4/2.1%, IPT tracing 6.1/7.6/3.1% — overhead grows when shared and leaks to innocent pods")
	res.Metric("innocent_b_ipt", iptLoss)
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig03b(cfg Config) (*Result, error) {
	res := &Result{ID: "fig03b"}
	t := &tabular.Table{
		Title:  "Figure 3b: E2E response-time slowdown from a ~2% single-service profiling overhead",
		Header: []string{"load", "p50", "p75", "p90", "p99", "p99.9"},
	}
	loads := []float64{1e2, 1e3, 1e4, 1e5}
	// perf-record-like overhead on the traced service only (tier 1).
	ov := []service.Overhead{{Tier: 1, Frac: 0.02, SpikeProb: 0.02, Spike: 3 * simtime.Millisecond}}
	var groups []openLoop
	for _, load := range loads {
		rate := service.InstanceRate(load)
		groups = append(groups, openLoop{rate, nil}, openLoop{rate, ov})
	}
	means := openLoopMeans(cfg, durQuick(cfg, 4*simtime.Second, 20*simtime.Second), groups)
	var worst float64
	for li, load := range loads {
		base, with := means[2*li], means[2*li+1]
		slow := func(b, w float64) float64 {
			if b <= 0 {
				return 0
			}
			return w/b - 1
		}
		p999 := slow(base.P999, with.P999)
		if p999 > worst {
			worst = p999
		}
		t.AddRow(fmt.Sprintf("Load=%.0e", load),
			pct(slow(base.P50, with.P50)),
			pct(slow(base.P75, with.P75)),
			pct(slow(base.P90, with.P90)),
			pct(slow(base.P99, with.P99)),
			pct(p999))
	}
	t.Notes = append(t.Notes, "paper: degradation worsens with stress, tail latency beyond 10% at high load")
	res.Metric("worst_tail_slowdown", worst)
	res.Tables = append(res.Tables, t)
	return res, nil
}

// openLoop is one group of open-loop repetitions: Poisson arrivals at
// rate, with the given overheads.
type openLoop struct {
	rate float64
	ov   []service.Overhead
}

// openLoopMeans runs every group's repetitions (3 quick, 8 full), each on
// its own chain seed, and returns each group's percentile summary averaged
// term by term in repetition order; queueing-tail slowdowns are too noisy
// for single-run comparisons. A run lasts dur, or longer at low rates so
// that it sees 1500 (quick) or 5000 (full) requests: stable percentiles
// need the samples, and virtual time is nearly free when few events occur
// in it.
func openLoopMeans(cfg Config, dur simtime.Duration, groups []openLoop) []metrics.Summary {
	reps, floor := 8, 5000.0
	if cfg.Quick {
		reps, floor = 3, 1500
	}
	var runs []svcRun
	for _, g := range groups {
		d := max(dur, simtime.Duration(floor/g.rate*float64(simtime.Second)))
		for i := 0; i < reps; i++ {
			chain := service.ComposePostChain(cfg.Seed + 11 + uint64(i)*997)
			runs = append(runs, svcRun{chain: chain, ov: g.ov, dur: d,
				arrivals: func() []service.Arrival { return service.Poisson(chain.Seed, g.rate, d) }})
		}
	}
	sums := runServices(cfg, runs, func(_ int, r service.Result) metrics.Summary { return metrics.Summarize(r.RTms) })
	means := make([]metrics.Summary, len(groups))
	for i, s := range sums {
		m, n := &means[i/reps], float64(reps)
		m.P50 += s.P50 / n
		m.P75 += s.P75 / n
		m.P90 += s.P90 / n
		m.P99 += s.P99 / n
		m.P999 += s.P999 / n
	}
	return means
}

func runFig04(cfg Config) (*Result, error) {
	a, ns, err := figureSpec("fig04")
	if err != nil {
		return nil, err
	}
	ns.Dur = durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)

	// The document declares the full antagonist stack; rows take prefixes.
	scenarios := []struct {
		name string
		cos  int
	}{
		{"Exclusive A", 0},
		{"Shared A with B", 1},
		{"Shared A with B and C", 2},
	}
	schemes := []SchemeKind{SchemeOracle, SchemeNHT}
	var cells []cell
	for _, sc := range scenarios {
		spec := ns
		spec.CoRunners = ns.CoRunners[:sc.cos]
		for _, s := range schemes {
			cells = append(cells, cell{a, s, spec})
		}
	}
	type events struct {
		switches, migrations int64
		kernelMS             float64
		hw                   workload.HWEvents
	}
	evs, err := runCells(cfg, cells, func(i int, r node.Result) events {
		m, traced := r.Machine, cells[i].scheme == SchemeNHT
		interference := 1.0 + 0.15*float64(len(cells[i].spec.CoRunners))
		return events{
			switches:   m.Stats.Switches,
			migrations: m.Stats.Migrations,
			kernelMS:   float64(m.TotalKernelNS()) / 1e6,
			hw:         a.ComputeHWEvents(r.Stats.Insns, interference, traced, m.Cfg.Cost),
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "fig04"}
	t := &tabular.Table{
		Title: "Figure 4: software and hardware events, with and without hardware tracing",
		Header: []string{"scenario", "tracing", "ctx switches", "migrations", "kernel ms",
			"branch miss (M)", "L1 miss (M)", "LLC miss (M)"},
	}
	for i, ev := range evs {
		label := "w/o"
		if cells[i].scheme == SchemeNHT {
			label = "w/"
		}
		t.AddRowf(scenarios[i/len(schemes)].name, label, ev.switches, ev.migrations, ev.kernelMS,
			float64(ev.hw.BranchMisses)/1e6, float64(ev.hw.L1Misses)/1e6, float64(ev.hw.LLCMisses)/1e6)
	}
	// The fully shared scenario's traced switches over its untraced ones.
	last := len(evs) - 1
	res.Metric("switches_ratio_traced", float64(evs[last].switches)/float64(max(evs[last-1].switches, 1)))
	t.Notes = append(t.Notes,
		"paper: switches rise sharply with co-location; tracing raises kernel time; LLC misses rise only ~1.3% from tracing itself")
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig05(cfg Config) (*Result, error) {
	ms, ns, err := figureSpec("fig05")
	if err != nil {
		return nil, err
	}
	dur := durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)

	type arrangement struct {
		name    string
		kind    cpu.SharingKind
		ht      bool
		coCores []int
	}
	target := ns.TargetCores
	arrangements := []arrangement{
		{"Exclusive", cpu.ShareNone, false, nil},
		{"Share HT", cpu.ShareHT, true, []int{8, 9, 10, 11}}, // HT siblings of 0-3 on a 16-core HT machine
		{"Share Core", cpu.ShareCore, false, target},
		{"Share LLC", cpu.ShareLLC, false, []int{4, 5, 6, 7}},
	}
	res := &Result{ID: "fig05"}
	t := &tabular.Table{
		Title:  "Figure 5: MySQL-like throughput under resource sharing, with (X+T) and without tracing",
		Header: []string{"setting", "normalized thpt", "with tracing", "tracing slowdown"},
	}
	var cells []cell
	for _, ar := range arrangements {
		// The document declares the antagonist; each row re-pins it to the
		// resource under test (HT siblings, the app's cores, or LLC-only
		// neighbors) or drops it for the exclusive baseline.
		spec := ns
		spec.Dur = dur
		spec.HT = ar.ht
		if ar.coCores != nil {
			co := ns.CoRunners[0]
			co.Cores = ar.coCores
			spec.CoRunners = []node.CoRunner{co}
		} else {
			spec.CoRunners = nil
		}
		cells = append(cells, cell{ms, SchemeOracle, spec}, cell{ms, SchemeNHT, spec})
	}
	rs, err := runCells(cfg, cells, numbers)
	if err != nil {
		return nil, err
	}
	exclusiveBase := float64(max(rs[0].Stats.Cycles, 1)) // arrangements[0] is Exclusive
	for ai, ar := range arrangements {
		base, traced := rs[2*ai], rs[2*ai+1]
		norm := float64(base.Stats.Cycles) / exclusiveBase
		normT := float64(traced.Stats.Cycles) / exclusiveBase
		slow := traced.Overhead(base)
		t.AddRow(ar.name, tabular.FormatFloat(norm), tabular.FormatFloat(normT), pct(slow))
		res.Metric("tracing_slowdown_"+ar.kind.String(), slow)
	}
	t.Notes = append(t.Notes,
		"paper: no single shared resource explains the overhead growth — HT/core/LLC contribute 1.4%/1.5%/1.0%")
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig08(cfg Config) (*Result, error) {
	mc, ns, err := figureSpec("fig08")
	if err != nil {
		return nil, err
	}
	ns.Dur = durQuick(cfg, 1*simtime.Second, 5*simtime.Second)
	stats, err := runCells(cfg, []cell{{mc, SchemeOracle, ns}}, func(_ int, r node.Result) sched.MachineStats {
		return r.Machine.Stats
	})
	if err != nil {
		return nil, err
	}
	st := stats[0]
	res := &Result{ID: "fig08"}
	t := &tabular.Table{
		Title:  "Figure 8: CDF of context-switch periods (fraction of periods <= x ms)",
		Header: []string{"series", "0.01ms", "0.1ms", "1ms", "10ms", "100ms", "1000ms", "samples"},
	}
	xs := []float64{0.01, 0.1, 1, 10, 100, 1000}
	series := []struct {
		name    string
		samples []float64
	}{
		{"All Context Switches", st.SwitchPeriodsAll},
		{"Grouped by Core", st.SwitchPeriodsByCore},
		{"Grouped by Process", st.SwitchPeriodsByProc},
	}
	for _, s := range series {
		pts := metrics.CDF(s.samples, xs)
		row := []string{s.name}
		for _, p := range pts {
			row = append(row, fmt.Sprintf("%.2f", p.F))
		}
		row = append(row, fmt.Sprintf("%d", len(s.samples)))
		t.AddRow(row...)
	}
	under1ms := metrics.CDF(st.SwitchPeriodsAll, []float64{1})[0].F
	res.Metric("all_under_1ms", under1ms)
	t.Notes = append(t.Notes,
		"paper: most cores/threads switch within 1 ms, so per-switch control costs 1000x more than per-second control",
		"per-core and per-process groupings shift right of the all-switches curve")
	res.Tables = append(res.Tables, t)
	return res, nil
}
