package experiments

import (
	"fmt"

	"exist/internal/node"
	"exist/internal/parallel"
	"exist/internal/service"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: normalized slowdown on SPEC-like compute benchmarks",
		Paper: "EXIST 0.4-1.5% per benchmark; 3.5x/4.4x/6.6x lower overhead than StaSam/eBPF/NHT",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Figure 14: normalized throughput on online benchmarks (mc/ng/ms)",
		Paper: "EXIST ~1.1% loss; 6.4x/7.3x/12.2x lower overhead than StaSam/eBPF/NHT",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "tab03",
		Title: "Table 3: time-efficiency comparison with published SOTA results",
		Paper: "EXIST 0.9%/1.5% (compute avg/worst), 1.1%/1.6% (online avg/worst)",
		Run:   runTab03,
	})
}

// computeOverheads measures per-benchmark slowdowns for all schemes on the
// SPEC profiles, co-locating each benchmark with a filler (the shared
// datacenter setting).
func computeOverheads(cfg Config) (map[string]map[SchemeKind]float64, []workload.Profile, error) {
	specs := workload.SPEC()
	filler, err := workload.ByName("xz")
	if err != nil {
		return nil, nil, err
	}
	dur := durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)
	rows, err := parallel.MapErr(len(specs), cfg.Jobs, func(i int) (map[SchemeKind]float64, error) {
		p := specs[i]
		cores := p.CoresWanted
		if cores < 1 {
			cores = 1
		}
		spec := node.Spec{
			Cores: cores * 2,
			Dur:   dur,
			Seed:  uint64(len(p.Name))*31 + 7,
		}
		// Co-locate the filler on the same cores as the target (Figure
		// 3a's shared-pod setting).
		tc := make([]int, cores)
		for i := range tc {
			tc[i] = i
		}
		spec.TargetCores = tc
		spec.CoRunners = coRunners([]workload.Profile{filler}, [][]int{tc})

		results, err := sweepSchemes(cfg, p, spec)
		if err != nil {
			return nil, err
		}
		base := results[SchemeOracle]
		row := make(map[SchemeKind]float64, len(ComparisonSchemes))
		for _, s := range ComparisonSchemes {
			row[s] = results[s].Overhead(base)
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]map[SchemeKind]float64, len(specs))
	for i, p := range specs {
		out[p.Name] = rows[i]
	}
	return out, specs, nil
}

func runFig13(cfg Config) (*Result, error) {
	overheads, specs, err := computeOverheads(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig13"}
	t := &tabular.Table{
		Title:  "Figure 13: execution slowdown of tracing SPEC-like benchmarks (normalized to Oracle)",
		Header: []string{"bench", "EXIST", "StaSam", "eBPF", "NHT"},
	}
	avg := map[SchemeKind]float64{}
	for _, p := range specs {
		row := overheads[p.Name]
		t.AddRow(p.Name, pct(row[SchemeEXIST]), pct(row[SchemeStaSam]), pct(row[SchemeEBPF]), pct(row[SchemeNHT]))
		for s, v := range row {
			avg[s] += v / float64(len(specs))
		}
	}
	t.AddRow("Avg.", pct(avg[SchemeEXIST]), pct(avg[SchemeStaSam]), pct(avg[SchemeEBPF]), pct(avg[SchemeNHT]))
	if avg[SchemeEXIST] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"overhead reduction vs EXIST: StaSam %s, eBPF %s, NHT %s (paper: 3.5x, 4.4x, 6.6x)",
			ratio(avg[SchemeStaSam]/avg[SchemeEXIST]),
			ratio(avg[SchemeEBPF]/avg[SchemeEXIST]),
			ratio(avg[SchemeNHT]/avg[SchemeEXIST])))
	}
	t.Notes = append(t.Notes, "paper: EXIST slowdown ranges 0.4%-1.5% across the suite")
	res.Tables = append(res.Tables, t)
	res.Metric("exist_avg_overhead", avg[SchemeEXIST])
	res.Metric("stasam_factor", avg[SchemeStaSam]/avg[SchemeEXIST])
	res.Metric("ebpf_factor", avg[SchemeEBPF]/avg[SchemeEXIST])
	res.Metric("nht_factor", avg[SchemeNHT]/avg[SchemeEXIST])
	worst := 0.0
	for _, p := range specs {
		if v := overheads[p.Name][SchemeEXIST]; v > worst {
			worst = v
		}
	}
	res.Metric("exist_worst_overhead", worst)
	return res, nil
}

// onlineNodeOverheads measures each online benchmark's node-level
// overhead per scheme (stage 1 of Figure 14).
func onlineNodeOverheads(cfg Config) (map[string]map[SchemeKind]float64, error) {
	dur := durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)
	benches := workload.OnlineBenchmarks()
	rows, err := parallel.MapErr(len(benches), cfg.Jobs, func(i int) (map[SchemeKind]float64, error) {
		results, err := sweepSchemes(cfg, benches[i], node.Spec{Cores: 8, Dur: dur, Seed: 17})
		if err != nil {
			return nil, err
		}
		base := results[SchemeOracle]
		row := make(map[SchemeKind]float64)
		for _, s := range ComparisonSchemes {
			row[s] = results[s].Inflation(base)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[SchemeKind]float64, len(benches))
	for i, p := range benches {
		out[p.Name] = rows[i]
	}
	return out, nil
}

// schemeServiceOverhead maps a scheme's node-level overhead to its
// service-level disturbance: the measured inflation applies to every tier
// of the traced benchmark (the whole serving path runs in the traced
// process), and interrupt/haul-driven schemes add occasional worker
// stalls, which is how "tracing disturbances cause cascaded slowdowns of
// subsequent queries".
func schemeServiceOverhead(s SchemeKind, frac float64, tiers int) []service.Overhead {
	var spikeProb float64
	var spike simtime.Duration
	switch s {
	case SchemeStaSam:
		spikeProb, spike = 0.01, 2*simtime.Millisecond
	case SchemeEBPF:
		spikeProb, spike = 0.015, 2*simtime.Millisecond
	case SchemeNHT:
		spikeProb, spike = 0.03, 3*simtime.Millisecond
	case SchemeEXIST:
		// Bounded windows and no hauling: no stall spikes.
	}
	out := make([]service.Overhead, 0, tiers)
	for i := 0; i < tiers; i++ {
		out = append(out, service.Overhead{Tier: i, Frac: frac, SpikeProb: spikeProb, Spike: spike})
	}
	return out
}

func runFig14(cfg Config) (*Result, error) {
	nodeOver, err := onlineNodeOverheads(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig14"}
	t := &tabular.Table{
		Title:  "Figure 14: normalized closed-loop throughput of online benchmarks",
		Header: []string{"bench", "EXIST", "StaSam", "eBPF", "NHT"},
	}
	dur := durQuick(cfg, 8*simtime.Second, 20*simtime.Second)
	reps := 3
	if !cfg.Quick {
		reps = 6
	}
	avgLoss := map[SchemeKind]float64{}
	names := []string{"mc", "ng", "ms"}
	closedThpt := func(bi int, ov []service.Overhead) float64 {
		// Each rep seeds from (bi, rep), so reps can run concurrently; the
		// serial in-order sum keeps float accumulation identical.
		thpts := parallel.Map(reps, cfg.Jobs, func(rep int) float64 {
			spec := service.ComposePostChain(cfg.Seed + uint64(bi) + uint64(rep)*1013)
			return service.RunClosedLoop(spec, 48, dur, ov).ThroughputRPS
		})
		var sum float64
		for _, t := range thpts {
			sum += t
		}
		return sum / float64(reps)
	}
	for bi, name := range names {
		nTiers := len(service.ComposePostChain(0).Tiers)
		base := closedThpt(bi, nil)
		row := []string{name}
		for _, s := range []SchemeKind{SchemeEXIST, SchemeStaSam, SchemeEBPF, SchemeNHT} {
			ov := schemeServiceOverhead(s, nodeOver[name][s], nTiers)
			norm := closedThpt(bi, ov) / base
			avgLoss[s] += (1 - norm) / float64(len(names))
			row = append(row, tabular.FormatFloat(norm))
		}
		t.AddRow(row...)
	}
	t.AddRow("Avg. loss", pct(avgLoss[SchemeEXIST]), pct(avgLoss[SchemeStaSam]),
		pct(avgLoss[SchemeEBPF]), pct(avgLoss[SchemeNHT]))
	if avgLoss[SchemeEXIST] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"throughput-loss reduction vs EXIST: StaSam %s, eBPF %s, NHT %s (paper: 6.4x, 7.3x, 12.2x)",
			ratio(avgLoss[SchemeStaSam]/avgLoss[SchemeEXIST]),
			ratio(avgLoss[SchemeEBPF]/avgLoss[SchemeEXIST]),
			ratio(avgLoss[SchemeNHT]/avgLoss[SchemeEXIST])))
	}
	t.Notes = append(t.Notes,
		"online benchmarks are more tracing-sensitive than compute: disturbances cascade into queued requests")
	res.Tables = append(res.Tables, t)
	res.Metric("exist_avg_loss", avgLoss[SchemeEXIST])
	res.Metric("nht_factor", safeDiv(avgLoss[SchemeNHT], avgLoss[SchemeEXIST]))
	res.Metric("stasam_factor", safeDiv(avgLoss[SchemeStaSam], avgLoss[SchemeEXIST]))
	res.Metric("ebpf_factor", safeDiv(avgLoss[SchemeEBPF], avgLoss[SchemeEXIST]))
	return res, nil
}

// sotaRow is one published comparison point of Table 3.
type sotaRow struct {
	name, kind, bench string
	avg, worst        float64 // percent
}

// publishedSOTA are the Table 3 numbers quoted from the cited papers, as
// the paper itself does (those systems are not publicly reproducible).
var publishedSOTA = []sotaRow{
	{"REPT[28]", "hardware tracing", "online", 5.35, 9.68},
	{"FlowGuard[60]", "hardware tracing", "compute", 3.79, 30},
	{"Upgradvisor[21]", "hardware tracing", "compute", 6.4, 16},
	{"JPortal[102]", "hardware tracing", "online", 11.3, 16.5},
	{"Log20[98]", "instrumentation", "online", -0.2, 0.9},
	{"Hubble[68]", "instrumentation", "compute", 5, 25},
	{"DMon[50]", "instrumentation", "online", 1.36, 4.92},
	{"Argus[88]", "instrumentation", "online", 3.36, 5},
}

func runTab03(cfg Config) (*Result, error) {
	compute, specs, err := computeOverheads(cfg)
	if err != nil {
		return nil, err
	}
	online, err := onlineNodeOverheads(cfg)
	if err != nil {
		return nil, err
	}
	var cAvg, cWorst, oAvg, oWorst float64
	for _, p := range specs {
		v := compute[p.Name][SchemeEXIST]
		cAvg += v / float64(len(specs))
		if v > cWorst {
			cWorst = v
		}
	}
	for _, row := range online {
		v := row[SchemeEXIST]
		oAvg += v / float64(len(online))
		if v > oWorst {
			oWorst = v
		}
	}

	res := &Result{ID: "tab03"}
	t := &tabular.Table{
		Title:  "Table 3: time-efficiency comparison with SOTA (c=compute, o=online; SOTA values as published)",
		Header: []string{"scheme", "kind", "bench", "average", "worst"},
	}
	for _, r := range publishedSOTA {
		t.AddRow(r.name, r.kind, r.bench, fmt.Sprintf("%.2f%%", r.avg), fmt.Sprintf("%.2f%%", r.worst))
	}
	t.AddRow("EXIST (ours)", "hardware tracing", "compute", pct(cAvg), pct(cWorst))
	t.AddRow("EXIST (ours)", "hardware tracing", "online", pct(oAvg), pct(oWorst))
	t.Notes = append(t.Notes, "paper: EXIST 0.9%/1.5% on compute and 1.1%/1.6% on online (avg/worst)")
	res.Tables = append(res.Tables, t)
	res.Metric("exist_compute_avg", cAvg)
	res.Metric("exist_compute_worst", cWorst)
	res.Metric("exist_online_avg", oAvg)
	res.Metric("exist_online_worst", oWorst)
	return res, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
