package experiments

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/faults"
	"exist/internal/metrics"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "resilience",
		Title: "Resilience: graceful trace degradation under injected faults",
		Paper: "robustness extension: at 10% session loss every request terminates and >=80% land with (partial) coverage",
		Run:   runResilience,
	})
}

// resilienceRun is one cluster run's outcome at a given fault level.
type resilienceRun struct {
	tally
	accuracy  float64 // decoded histogram vs fault-free reference
	resamples int64
	retries   int64
	hist      map[string]float64 // decoded function histogram
}

func runResilience(cfg Config) (*Result, error) {
	res := &Result{ID: "resilience"}

	// Sweep 1: session-loss rate. The acceptance bar sits at 10%: every
	// request terminal, >=80% with coverage, accuracy falling smoothly.
	lossRates := []float64{0, 0.05, 0.10, 0.20, 0.30}
	if cfg.Quick {
		lossRates = []float64{0, 0.10, 0.30}
	}
	t1 := &tabular.Table{
		Title: "Graceful degradation vs injected session-loss rate (corruption riding along at loss/2)",
		Header: []string{"loss rate", "terminal", "with coverage", "completed", "degraded",
			"mean coverage", "accuracy", "resamples"},
	}
	// Every level, fault-free first, runs the standard request mix on the
	// same cluster. The fault-free level's decoded histogram is the
	// accuracy reference the others score against once all have run.
	levelCfgs := []faults.Config{{}}
	for _, rate := range lossRates[1:] {
		levelCfgs = append(levelCfgs, faults.Config{
			Seed:            cfg.Seed + 77,
			SessionLossProb: rate,
			CorruptProb:     rate / 2,
			TruncateProb:    rate / 2,
		})
	}
	levelCfgs = append(levelCfgs, faults.Config{
		Seed:            cfg.Seed + 177,
		PutFailProb:     0.15,
		InsertFailProb:  0.15,
		SessionLossProb: 0.10,
		CorruptProb:     0.05,
		TruncateProb:    0.05,
		StallProb:       0.10,
		CrashMTBF:       4 * simtime.Second,
		CrashDowntime:   1 * simtime.Second,
	})
	agent, err := workload.ByName("Agent")
	if err != nil {
		return nil, err
	}
	n := 20
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Nodes = 8
	ccfg.CoresPerNode = 4
	if cfg.Quick {
		n = 8
		ccfg.Nodes = 6
	}
	files, stop := mixedFilings("", "Agent", n)
	runs := make([]fleetRun, len(levelCfgs))
	for i, fc := range levelCfgs {
		runs[i] = fleetRun{name: fmt.Sprintf("resilience level %d", i), cfg: ccfg, app: agent,
			opts: workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: cfg.Seed + 5}, files: files, stop: stop}
		if i > 0 {
			runs[i].cfg.Faults = faults.New(fc)
		}
	}
	levels, err := runFleets(cfg, runs, func(_ int, f *fleet) resilienceRun {
		return resilienceRun{tally: f.tally, resamples: f.c.Mgmt.Resamples, retries: f.c.Mgmt.Retries,
			hist: f.c.ODPS.AggregateApp("Agent")}
	})
	if err != nil {
		return nil, err
	}
	levels[0].accuracy = 1
	for i := 1; i < len(levels); i++ {
		levels[i].accuracy = metrics.WeightMatch(levels[0].hist, levels[i].hist)
	}
	for li, rate := range lossRates {
		run := levels[li]
		t1.AddRow(
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d/%d", run.terminal, run.requests),
			fmt.Sprintf("%d/%d", run.covered, run.requests),
			fmt.Sprintf("%d", run.completed),
			fmt.Sprintf("%d", run.degraded),
			fmt.Sprintf("%.2f", run.coverage),
			fmt.Sprintf("%.3f", run.accuracy),
			fmt.Sprintf("%d", run.resamples),
		)
		tag := fmt.Sprintf("loss%.0f", rate*100)
		res.Metric("terminal_frac_"+tag, frac(run.terminal, run.requests))
		res.Metric("covered_frac_"+tag, frac(run.covered, run.requests))
		res.Metric("accuracy_"+tag, run.accuracy)
		res.Metric("coverage_"+tag, run.coverage)
	}
	t1.Notes = append(t1.Notes,
		"accuracy: decoded function-histogram overlap vs the fault-free run",
		"acceptance: at 10% loss all requests terminal, >=80% with coverage, accuracy degrades smoothly")
	res.Tables = append(res.Tables, t1)

	// Sweep 2: the full fault soup — crashes, store errors, stalls — to
	// show the control plane machinery (leases, retries, deadlines)
	// holding the line rather than a single fault type. It already ran as
	// the last level above.
	run := levels[len(levels)-1]
	t2 := &tabular.Table{
		Title:  "Mixed-fault stress (crashes + store errors + stalls + 10% loss): control-plane counters",
		Header: []string{"counter", "value"},
	}
	t2.AddRow("requests terminal", fmt.Sprintf("%d/%d", run.terminal, run.requests))
	t2.AddRow("requests with coverage", fmt.Sprintf("%d/%d", run.covered, run.requests))
	t2.AddRow("mean coverage fraction", fmt.Sprintf("%.2f", run.coverage))
	t2.AddRow("decoded accuracy", fmt.Sprintf("%.3f", run.accuracy))
	t2.AddRow("store retries", fmt.Sprintf("%d", run.retries))
	t2.AddRow("sessions re-sampled", fmt.Sprintf("%d", run.resamples))
	t2.Notes = append(t2.Notes,
		"every fault decision is seeded and keyed by stable identifiers: reruns inject the identical schedule")
	res.Tables = append(res.Tables, t2)
	res.Metric("terminal_frac_mixed", frac(run.terminal, run.requests))
	res.Metric("covered_frac_mixed", frac(run.covered, run.requests))
	res.Metric("retries_mixed", float64(run.retries))
	return res, nil
}

// frac returns a/b as a fraction (0 when b is 0).
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
