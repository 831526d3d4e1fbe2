package experiments

import (
	"fmt"

	"exist/internal/binary"
	"exist/internal/core"
	"exist/internal/coverage"
	"exist/internal/decode"
	"exist/internal/memalloc"
	"exist/internal/metrics"
	"exist/internal/node"
	"exist/internal/parallel"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/trace"
	"exist/internal/workload"
	"exist/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: host memory allocation vs utilization",
		Paper: "allocation near the ceiling while average utilization stays low — UMA must budget, not grab",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: performance of tracing multiple repetitions",
		Paper: "coverage grows with diminishing returns, similarity rises, cost grows linearly",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig18",
		Title: "Figure 18: accuracy of EXIST on real-world applications",
		Paper: "83.7/82.6/86.2% average accuracy for 0.1/0.5/1 s windows vs the NHT reference",
		Run:   runFig18,
	})
	register(Experiment{
		ID:    "fig19",
		Title: "Figure 19: impact of the core sampling mechanism on accuracy",
		Paper: "sampling 30-100% of cores barely hurts accuracy but strongly cuts space",
		Run:   runFig19,
	})
	register(Experiment{
		ID:    "fig20",
		Title: "Figure 20: cluster-level sampling and trace augmentation",
		Paper: "merging 3/10 workers improves single-worker accuracy by up to 11%",
		Run:   runFig20,
	})
	register(Experiment{
		ID:    "acc-bench",
		Title: "Section 5.3: path-exact accuracy on standard benchmarks vs exhaustive tracing",
		Paper: "87.4-95.1% on single-threaded SPEC (90.2% avg), 62.2% on multi-threaded xz, 89-93% online",
		Run:   runAccBench,
	})
}

// accuracyPair holds one EXIST-vs-reference comparison.
type accuracyPair struct {
	existMB, refMB float64
	accuracy       float64
	funcRatio      float64
}

// accuracyCells declares one EXIST window and its NHT reference on the
// same app and program, de-phased by seed and warmup.
func accuracyCells(noise, p workload.Profile, prog *binary.Program, period simtime.Duration,
	sampleRatio float64, seed uint64) []cell {
	return []cell{
		windowCell(noise, p, prog, period, sampleRatio, seed, false, 100*simtime.Millisecond),
		windowCell(noise, p, prog, period, 1, seed+7, true, 300*simtime.Millisecond),
	}
}

// accuracyPairs scores consecutive (EXIST, reference) windows from
// accuracyCells by histogram match.
func accuracyPairs(cfg Config, cells []cell) ([]accuracyPair, error) {
	ws, err := runWindows(cfg, cells)
	if err != nil {
		return nil, err
	}
	out := make([]accuracyPair, len(ws)/2)
	for k := range out {
		exist, ref := ws[2*k], ws[2*k+1]
		pr := accuracyPair{
			existMB:  exist.mb,
			refMB:    ref.mb,
			accuracy: metrics.WeightMatch(ref.rec.FuncEntries, exist.rec.FuncEntries),
		}
		if n := len(ref.rec.FuncEntries); n > 0 {
			pr.funcRatio = float64(len(exist.rec.FuncEntries)) / float64(n)
		}
		out[k] = pr
	}
	return out, nil
}

func runFig18(cfg Config) (*Result, error) {
	apps := workload.CloudApps()
	periods := []simtime.Duration{100 * simtime.Millisecond, 500 * simtime.Millisecond, 1 * simtime.Second}
	if cfg.Quick {
		periods = periods[:2]
	}
	res := &Result{ID: "fig18"}
	t := &tabular.Table{
		Title:  "Figure 18: accuracy on real-world applications (Wall's weight matching vs NHT reference)",
		Header: []string{"app", "period", "accuracy", "function ratio (EXIST/NHT)"},
	}
	noise, err := workload.ByName("Cache")
	if err != nil {
		return nil, err
	}
	// One (app, period) grid of window pairs: each pair's seed depends only
	// on the app index.
	var cells []cell
	for ai, app := range apps {
		prog := app.Synthesize(cfg.Seed ^ 0xACC0)
		for _, period := range periods {
			cells = append(cells, accuracyCells(noise, app, prog, period, 0, uint64(1800+ai*13))...)
		}
	}
	pairs, err := accuracyPairs(cfg, cells)
	if err != nil {
		return nil, err
	}
	perPeriod := map[simtime.Duration]float64{}
	for ai, app := range apps {
		for pi, period := range periods {
			pr := pairs[ai*len(periods)+pi]
			t.AddRow(app.Name, period.String(), pct(pr.accuracy), pct(pr.funcRatio))
			perPeriod[period] += pr.accuracy / float64(len(apps))
			res.Metric(fmt.Sprintf("acc_%s_%s", app.Name, period), pr.accuracy)
		}
	}
	for _, period := range periods {
		t.AddRow("Avg. @"+period.String(), "", pct(perPeriod[period]), "")
	}
	t.Notes = append(t.Notes,
		"paper: 83.7/82.6/86.2% average accuracy at 0.1/0.5/1 s; two captures of a dynamic service never align exactly")
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig19(cfg Config) (*Result, error) {
	s2, err := workload.ByName("Search2")
	if err != nil {
		return nil, err
	}
	ratios := []float64{0.3, 0.5, 0.8, 1.0}
	periods := []simtime.Duration{100 * simtime.Millisecond, 500 * simtime.Millisecond, 1 * simtime.Second}
	if cfg.Quick {
		ratios = []float64{0.3, 1.0}
		periods = periods[:2]
	}
	res := &Result{ID: "fig19"}
	t := &tabular.Table{
		Title:  "Figure 19: core sampling on CPU-share Search2 — accuracy vs space",
		Header: []string{"period", "sample ratio", "accuracy", "space ratio (EXIST/NHT)", "function ratio"},
	}
	noise, err := workload.ByName("Cache")
	if err != nil {
		return nil, err
	}
	prog := s2.Synthesize(cfg.Seed ^ 0xACC0)
	var cells []cell
	for _, period := range periods {
		for _, r := range ratios {
			cells = append(cells, accuracyCells(noise, s2, prog, period, r, 1900)...)
		}
	}
	pairs, err := accuracyPairs(cfg, cells)
	if err != nil {
		return nil, err
	}
	for pi, period := range periods {
		for ri, r := range ratios {
			pr := pairs[pi*len(ratios)+ri]
			spaceRatio := 0.0
			if pr.refMB > 0 {
				spaceRatio = pr.existMB / pr.refMB
			}
			t.AddRow(period.String(), pct(r), pct(pr.accuracy), pct(spaceRatio), pct(pr.funcRatio))
			res.Metric(fmt.Sprintf("acc_r%.0f_%s", r*100, period), pr.accuracy)
			res.Metric(fmt.Sprintf("space_r%.0f_%s", r*100, period), spaceRatio)
		}
	}
	t.Notes = append(t.Notes,
		"paper: accuracy barely moves with the sampling ratio (the target runs on few cores), space shrinks strongly",
		"lower ratios trade traced cores for bigger per-core buffers")
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig20(cfg Config) (*Result, error) {
	s1, err := workload.ByName("Search1")
	if err != nil {
		return nil, err
	}
	// As in Figure 12, a large binary keeps per-worker coverage partial so
	// the augmentation gain is visible.
	s1.Funcs = 420
	prog := s1.Synthesize(cfg.Seed ^ 0xACC0)
	workers := []int{1, 3, 10}
	periods := []simtime.Duration{100 * simtime.Millisecond, 500 * simtime.Millisecond, 1 * simtime.Second}
	if cfg.Quick {
		workers = []int{1, 3}
		periods = periods[:2]
	}
	// One exhaustive reference.
	maxWorkers := workers[len(workers)-1]

	res := &Result{ID: "fig20"}
	header := []string{"period"}
	for _, k := range workers {
		header = append(header, fmt.Sprintf("workers=%d", k))
	}
	t := &tabular.Table{
		Title:  "Figure 20: accuracy under cluster-level sampling and trace augmentation",
		Header: header,
	}
	noise, err := workload.ByName("Cache")
	if err != nil {
		return nil, err
	}
	// Per period: the exhaustive reference, then every worker window. The
	// shared prog is safe to walk and decode concurrently (its lazy indexes
	// build under sync.Once).
	perPeriod := maxWorkers + 1
	var cells []cell
	for _, period := range periods {
		cells = append(cells, windowCell(noise, s1, prog, period, 1, 2099, true, 300*simtime.Millisecond))
		for w := 0; w < maxWorkers; w++ {
			cells = append(cells, windowCell(noise, s1, prog, period, 0, uint64(2000+w*17), false, 100*simtime.Millisecond))
		}
	}
	ws, err := runWindows(cfg, cells)
	if err != nil {
		return nil, err
	}
	for pi, period := range periods {
		ref := ws[pi*perPeriod].rec
		perWorker := recs(ws[pi*perPeriod+1 : (pi+1)*perPeriod])
		row := []string{period.String()}
		var first, last float64
		for _, k := range workers {
			var acc float64
			if k == 1 {
				// Average single-worker accuracy over all workers, as the
				// paper does.
				for _, r := range perWorker {
					acc += metrics.WeightMatch(ref.FuncEntries, r.FuncEntries) / float64(len(perWorker))
				}
			} else {
				// Every worker's session is decoded once; prefixes give the
				// k-curves.
				merged := coverage.Merge(perWorker[:k])
				acc = metrics.WeightMatch(ref.FuncEntries, merged.Merged.FuncEntries)
			}
			row = append(row, pct(acc))
			if first == 0 {
				first = acc
			}
			last = acc
			res.Metric(fmt.Sprintf("acc_w%d_%s", k, period), acc)
		}
		t.AddRow(row...)
		res.Metric("improvement_"+period.String(), last-first)
	}
	t.Notes = append(t.Notes,
		"paper: augmentation improves single-worker accuracy by up to 11% with no extra node-level cost")
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig12(cfg Config) (*Result, error) {
	s1, err := workload.ByName("Search1")
	if err != nil {
		return nil, err
	}
	// A large binary relative to the window keeps single-window coverage
	// partial, exposing the marginal-benefit curve of extra repetitions.
	s1.Funcs = 420
	prog := s1.Synthesize(cfg.Seed ^ 0xACC0)
	n := 5
	if cfg.Quick {
		n = 3
	}
	noise, err := workload.ByName("Cache")
	if err != nil {
		return nil, err
	}
	cells := make([]cell, n)
	for w := range cells {
		cells[w] = windowCell(noise, s1, prog, 50*simtime.Millisecond, 0, uint64(1200+w*29), false, 100*simtime.Millisecond)
	}
	ws, err := runWindows(cfg, cells)
	if err != nil {
		return nil, err
	}
	results := recs(ws)
	sim := coverage.SimilarityCurve(results)
	cov := coverage.CoverageCurve(results, len(prog.Funcs))

	res := &Result{ID: "fig12"}
	t := &tabular.Table{
		Title:  "Figure 12: tracing multiple repetitions — similarity, coverage, cost",
		Header: []string{"repetitions", "trace similarity", "trace coverage", "trace cost"},
	}
	for k := 1; k <= n; k++ {
		t.AddRow(fmt.Sprintf("%d", k), pct(sim[k-1]), pct(cov[k-1]), fmt.Sprintf("%d units", k))
	}
	t.Notes = append(t.Notes,
		"paper: repetitions behave alike — added coverage diminishes while cost grows linearly, so RCO samples repetitions")
	res.Metric("coverage_first", cov[0])
	res.Metric("coverage_last", cov[n-1])
	res.Metric("similarity_last", sim[n-1])
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runFig11(cfg Config) (*Result, error) {
	// The observational motivation for UMA: a typical node ledger over
	// ~1000 ten-minute samples — allocation pinned near the ceiling by
	// reservations, utilization much lower and bursty.
	rng := xrand.Split(cfg.Seed, "fig11")
	n := 1000
	if cfg.Quick {
		n = 200
	}
	var allocSum, usedSum, usedMax float64
	var headroomMin = 100.0
	for i := 0; i < n; i++ {
		alloc := 88 + 6*rng.Float64() // percent of capacity
		used := 38 + 12*rng.Float64() + 8*float64(i%60)/60
		if used > usedMax {
			usedMax = used
		}
		if alloc-used < headroomMin {
			headroomMin = alloc - used
		}
		allocSum += alloc
		usedSum += used
	}
	res := &Result{ID: "fig11"}
	t := &tabular.Table{
		Title:  "Figure 11: host memory allocation and utilization rates (share of capacity)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("mean allocation", fmt.Sprintf("%.1f%%", allocSum/float64(n)))
	t.AddRow("mean utilization", fmt.Sprintf("%.1f%%", usedSum/float64(n)))
	t.AddRow("max utilization", fmt.Sprintf("%.1f%%", usedMax))
	t.AddRow("min alloc-used headroom", fmt.Sprintf("%.1f%%", headroomMin))
	t.Notes = append(t.Notes,
		"allocated memory nearly reaches the ceiling while utilization stays low: the tracing facility gets a fixed",
		"0.5-1 GB budget (≈1% of a 384 GB node) rather than allocating maximum per-core buffers everywhere")
	res.Metric("mean_alloc_pct", allocSum/float64(n))
	res.Metric("mean_used_pct", usedSum/float64(n))
	res.Tables = append(res.Tables, t)
	return res, nil
}

// runAccBench scores EXIST against the NHT reference with exact path
// matching on the standard benchmarks (§5.3's first accuracy experiment).
// Benchmarks behave identically across runs, so the comparison uses the
// same execution with ground truth recorded directly.
func runAccBench(cfg Config) (*Result, error) {
	workloads := workload.SPEC()
	workloads = append(workloads, workload.OnlineBenchmarks()...)
	period := durQuick(cfg, 200*simtime.Millisecond, 500*simtime.Millisecond)

	res := &Result{ID: "acc-bench"}
	t := &tabular.Table{
		Title:  "Section 5.3: exact-path accuracy vs ground truth on standard benchmarks",
		Header: []string{"bench", "threads", "accuracy", "spurious", "decode errors"},
	}
	type benchOut struct {
		skip     bool
		row      []string
		accuracy float64
	}
	outs, err := parallel.MapErr(len(workloads), cfg.Jobs, func(wi int) (benchOut, error) {
		p := workloads[wi]
		if cfg.Quick && wi%3 != 0 && p.Class == workload.Compute {
			return benchOut{skip: true}, nil
		}
		prog := p.Synthesize(cfg.Seed ^ 0xBE)
		// Pervasive co-location (one best-effort thread per core): shared
		// datacenters always multiplex, which is also what lets OTC
		// capture even CPU-bound targets at their next schedule-in.
		noise, err := workload.ByName("Cache")
		if err != nil {
			return benchOut{}, err
		}
		rt := node.Provision(node.Spec{
			Cores:        8,
			Timeslice:    500 * simtime.Microsecond,
			Seed:         cfg.Seed + uint64(wi)*71,
			Workload:     p,
			Walker:       true,
			Scale:        trace.SpaceScale,
			Prog:         prog,
			CoRunners:    []node.CoRunner{{Profile: noise, SeedOffset: 3}},
			Housekeeping: true,
		})
		m, proc := rt.Machine, rt.Proc

		gt := trace.NewGroundTruth(prog, 0, 0)
		m.Listener = func(th *sched.Thread, now simtime.Time, ev binary.BranchEvent) {
			if th.Proc == proc {
				gt.Record(int32(th.TID), now, ev)
			}
		}
		m.Run(100 * simtime.Millisecond)
		ctrl := rt.Controller()
		ccfg := core.DefaultConfig()
		ccfg.Period = period
		ccfg.Scale = trace.SpaceScale
		ccfg.Seed = m.Cfg.Seed
		// A tighter budget than the deployment default for the compute
		// suite: the accuracy gap the paper reports comes from the
		// memory-space threshold, so those windows must actually stress
		// the buffers. Online benchmarks run under the deployment budget
		// (their occupancy is bounded by lower per-core utilization).
		if p.Class == workload.Compute {
			ccfg.Mem = memalloc.Config{Budget: 280 << 20, PerCoreMin: 4 << 20, PerCoreMax: 120 << 20}
		} else {
			ccfg.Mem = memalloc.Config{Budget: 800 << 20, PerCoreMin: 4 << 20, PerCoreMax: 128 << 20, SampleRatio: 1}
		}
		sess, err := ctrl.Trace(proc, ccfg)
		if err != nil {
			return benchOut{}, err
		}
		gt.Start, gt.End = m.Eng.Now(), m.Eng.Now()+period
		m.Run(gt.End + 10*simtime.Millisecond)
		sres, err := sess.Result()
		if err != nil {
			return benchOut{}, err
		}
		rec := decode.Decode(sres, prog)
		score := metrics.PathAccuracy(gt.ByThread, rec.ByThread())
		return benchOut{
			row: []string{p.Name, fmt.Sprintf("%d", p.Threads), pct(score.Accuracy),
				fmt.Sprintf("%d", score.Spurious), fmt.Sprintf("%d", len(rec.Errors))},
			accuracy: score.Accuracy,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var avgSingle float64
	var nSingle int
	for wi, p := range workloads {
		if outs[wi].skip {
			continue
		}
		t.AddRow(outs[wi].row...)
		res.Metric("acc_"+p.Name, outs[wi].accuracy)
		if p.Threads == 1 {
			avgSingle += outs[wi].accuracy
			nSingle++
		}
	}
	if nSingle > 0 {
		t.AddRow("Avg. single-threaded", "", pct(avgSingle/float64(nSingle)), "", "")
		res.Metric("avg_single_threaded", avgSingle/float64(nSingle))
	}
	t.Notes = append(t.Notes,
		"paper: 87.4-95.1% on single-threaded SPEC (90.2% avg), 62.2% on xz, 89-93% on online benchmarks",
		"losses come from the memory-space threshold (compulsory drop), not decode mistakes")
	res.Tables = append(res.Tables, t)
	return res, nil
}
