package experiments

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/node"
	"exist/internal/parallel"
	"exist/internal/service"
	"exist/internal/simtime"
	"exist/internal/spec"
	"exist/internal/tabular"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "scenario",
		Title: "Scenario DSL: declarative traffic compiled end to end",
		Paper: "systems extension: one spec drives node overhead, open-loop SLO attainment and cluster trace coverage",
		Run:   runScenario,
	})
}

// clientOutcome is one traffic class's result in the traced run.
type clientOutcome struct {
	id        string
	class     string
	completed int
	p99       float64
	sloMS     float64
	attain    float64 // fraction of completed requests within sloMS (latency class)
}

// scenarioClusterRun is the optional distributed phase's outcome.
type scenarioClusterRun struct {
	requests int
	terminal int
	covered  int
	coverage float64
}

// scenarioRun is one compiled document driven end to end.
type scenarioRun struct {
	name     string
	arrivals int
	overhead float64 // EXIST node overhead measured on the placement
	thpt     float64
	avail    float64 // completed / (completed + dropped) in the traced run
	p99Base  float64
	p99      float64
	clients  []clientOutcome
	cluster  *scenarioClusterRun
}

// runScenarioDocs drives scenario documents through every phase each
// declares: a paired Oracle/EXIST node run on its placement (overhead), an
// open-loop service run over its compiled arrival schedule with that
// overhead applied (availability, per-class SLO attainment), and a cluster
// phase issuing trace requests under its fault config (coverage). Every
// document's node runs share one cell list; the later phases fan out per
// document. All randomness keys off cfg.Seed and the document, so the run
// is identical at any parallelism.
func runScenarioDocs(cfg Config, docs []*spec.Document) ([]*scenarioRun, error) {
	apps := make([]workload.Profile, len(docs))
	var cells []cell
	var owners []int // owners[k] is the document of cells 2k and 2k+1
	for i, doc := range docs {
		sc := doc.Scenario
		if sc == nil {
			return nil, fmt.Errorf("%s: document has no scenario section", doc.Src)
		}
		cs, err := node.CompileScenario(doc)
		if err != nil {
			return nil, err
		}
		apps[i] = cs.App
		// Phase 1: node overhead. The placement runs paired under Oracle
		// and EXIST (same machine seed, same workload realization); the
		// cycle gap is the tracing overhead the traffic phase then charges
		// the chain.
		if sc.Node != nil && sc.App != "" {
			ns := cs.Node
			ns.Dur = durQuick(cfg, 300*simtime.Millisecond, 1*simtime.Second)
			cells = append(cells, cell{cs.App, SchemeOracle, ns}, cell{cs.App, SchemeEXIST, ns})
			owners = append(owners, i)
		}
	}
	rs, err := runCells(cfg, cells, numbers)
	if err != nil {
		return nil, err
	}
	overheads := make([]float64, len(docs))
	for k, i := range owners {
		overheads[i] = max(rs[2*k+1].Overhead(rs[2*k]), 0)
	}
	return parallel.MapErr(len(docs), cfg.Jobs, func(i int) (*scenarioRun, error) {
		return runScenarioDoc(cfg, docs[i], apps[i], overheads[i])
	})
}

// runScenarioDoc runs one document's traffic and cluster phases against
// its resolved app, with its measured node overhead.
func runScenarioDoc(cfg Config, doc *spec.Document, app workload.Profile, overhead float64) (*scenarioRun, error) {
	sc := doc.Scenario
	name := doc.Name
	if name == "" {
		name = doc.Src
	}
	run := &scenarioRun{name: name, overhead: overhead}
	seed := cfg.Seed ^ doc.Seed

	// Phase 2: traffic. Quick mode truncates the window; the schedule is
	// compiled at the truncated duration, so it stays a pure function of
	// (document, seed, quick).
	scT := *sc
	if cfg.Quick && scT.DurationS > 10 {
		scT.DurationS = 10
	}
	arr, err := scT.Arrivals(seed, 1.0/service.DeploymentWidth)
	if err != nil {
		return nil, err
	}
	run.arrivals = len(arr)
	if len(arr) > 0 {
		sa := make([]service.Arrival, len(arr))
		for i, a := range arr {
			sa[i] = service.Arrival{At: a.At, Client: a.Client}
		}
		chain := service.ComposePostChain(seed + 101)
		dur := scT.Dur()
		baseRes := service.RunSchedule(chain, sa, dur, len(scT.Clients), nil)
		var ov []service.Overhead
		if run.overhead > 0 {
			ov = []service.Overhead{{Tier: 1, Frac: run.overhead}}
		}
		tracedRes := service.RunSchedule(chain, sa, dur, len(scT.Clients), ov)
		run.thpt = tracedRes.ThroughputRPS
		run.p99Base = baseRes.Summary.P99
		run.p99 = tracedRes.Summary.P99
		if total := tracedRes.Completed + tracedRes.Dropped; total > 0 {
			run.avail = float64(tracedRes.Completed) / float64(total)
		}
		for ci, c := range scT.Clients {
			out := clientOutcome{id: c.ID, class: c.SLOClass, sloMS: c.SLOMs}
			if out.class == "" {
				out.class = "besteffort"
			}
			rts := tracedRes.ByClient[ci]
			out.completed = len(rts)
			if len(rts) > 0 {
				out.p99 = pctOf(rts, 0.99)
				if c.SLOClass == "latency" {
					within := 0
					for _, rt := range rts {
						if rt <= c.SLOMs {
							within++
						}
					}
					out.attain = float64(within) / float64(len(rts))
				}
			}
			run.clients = append(run.clients, out)
		}
	}

	// Phase 3: cluster. The document's cluster/faults sections configure a
	// distributed run issuing trace requests against the scenario app.
	if sc.Cluster != nil && sc.App != "" {
		cr, err := runScenarioCluster(cfg, app, sc, seed)
		if err != nil {
			return nil, err
		}
		run.cluster = cr
	}
	return run, nil
}

// runScenarioCluster issues alternating profiling/anomaly trace requests
// against a cluster sized by the document and reports termination and
// coverage, resilience-style.
func runScenarioCluster(cfg Config, app workload.Profile, sc *spec.Scenario, seed uint64) (*scenarioClusterRun, error) {
	ccfg := cluster.ConfigFromSpec(sc.Cluster, sc.Faults, seed)
	ccfg.Jobs = parallel.Workers(cfg.Jobs)
	c := cluster.New(ccfg)
	if err := c.Deploy(app, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: seed + 5}); err != nil {
		return nil, err
	}
	n := sc.Cluster.Requests
	if n <= 0 {
		n = 6
	}
	if cfg.Quick && n > 4 {
		n = 4
	}
	var reqs []*cluster.TraceRequest
	for i := 0; i < n; i++ {
		purpose := coverage.PurposeProfiling
		reqName := fmt.Sprintf("scn-prof-%d", i)
		if i%2 == 1 {
			purpose = coverage.PurposeAnomaly
			reqName = fmt.Sprintf("scn-diag-%d", i)
		}
		at := simtime.Time(i) * simtime.Time(500*simtime.Millisecond)
		c.Eng.Schedule(at, func(simtime.Time) {
			r, err := c.Request(reqName, cluster.TraceRequestSpec{
				App:     app.Name,
				Purpose: purpose,
				Period:  200 * simtime.Millisecond,
			})
			if err == nil {
				reqs = append(reqs, r)
			}
		})
	}
	c.Run(simtime.Time(n)*simtime.Time(500*simtime.Millisecond) + simtime.Time(15*simtime.Second))

	out := &scenarioClusterRun{requests: len(reqs)}
	var covSum float64
	for _, r := range reqs {
		if r.Phase.Terminal() {
			out.terminal++
			if len(r.SessionKeys) > 0 {
				out.covered++
			}
		}
		covSum += r.CoverageFraction()
	}
	if len(reqs) > 0 {
		out.coverage = covSum / float64(len(reqs))
	}
	return out, nil
}

// pctOf returns the p-th percentile of a copy of xs.
func pctOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	insertionSortF(s)
	if len(s) == 0 {
		return 0
	}
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// insertionSortF sorts a small float slice in place without pulling the
// sort package's interface machinery into the hot path. Traffic-phase
// slices are short enough that simplicity wins.
func insertionSortF(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// buildScenarioResult renders one or more scenario runs into tables.
func buildScenarioResult(id string, runs []*scenarioRun) *Result {
	res := &Result{ID: id}
	summary := &tabular.Table{
		Title: "Scenario DSL: compiled traffic, node overhead and availability",
		Header: []string{"scenario", "arrivals", "EXIST node overhead", "thpt r/s",
			"availability", "p99 ms (base)", "p99 ms (traced)"},
	}
	perClient := &tabular.Table{
		Title:  "Per-client outcome under tracing (SLO attainment judged per traffic class)",
		Header: []string{"scenario", "client", "class", "completed", "p99 ms", "slo ms", "attainment"},
	}
	clusterT := &tabular.Table{
		Title:  "Cluster phase: trace-request termination and coverage under the document's fault config",
		Header: []string{"scenario", "requests", "terminal", "with coverage", "mean coverage"},
	}
	haveCluster := false
	for _, run := range runs {
		summary.AddRow(run.name,
			fmt.Sprintf("%d", run.arrivals),
			pct(run.overhead),
			fmt.Sprintf("%.0f", run.thpt),
			fmt.Sprintf("%.4f", run.avail),
			fmt.Sprintf("%.1f", run.p99Base),
			fmt.Sprintf("%.1f", run.p99))
		res.Metric(run.name+"_availability", run.avail)
		res.Metric(run.name+"_overhead", run.overhead)
		res.Metric(run.name+"_arrivals", float64(run.arrivals))
		for _, c := range run.clients {
			attain := "-"
			if c.class == "latency" {
				attain = fmt.Sprintf("%.3f", c.attain)
				res.Metric(run.name+"_slo_"+c.id, c.attain)
			}
			slo := "-"
			if c.sloMS > 0 {
				slo = fmt.Sprintf("%.0f", c.sloMS)
			}
			perClient.AddRow(run.name, c.id, c.class,
				fmt.Sprintf("%d", c.completed), fmt.Sprintf("%.1f", c.p99), slo, attain)
		}
		if cr := run.cluster; cr != nil {
			haveCluster = true
			clusterT.AddRow(run.name,
				fmt.Sprintf("%d", cr.requests),
				fmt.Sprintf("%d/%d", cr.terminal, cr.requests),
				fmt.Sprintf("%d/%d", cr.covered, cr.requests),
				fmt.Sprintf("%.2f", cr.coverage))
			res.Metric(run.name+"_coverage", cr.coverage)
		}
	}
	summary.Notes = append(summary.Notes,
		"every run compiles from a scenario document: arrivals, placement, faults and cluster sizing all come from the spec",
		"the traffic phase charges the chain the node overhead measured on the document's own placement")
	res.Tables = append(res.Tables, summary, perClient)
	if haveCluster {
		res.Tables = append(res.Tables, clusterT)
	}
	return res
}

// runScenario drives every bundled scenario. The documents fan out across
// the worker pool and are harvested in name order, keeping output
// byte-identical to a serial run.
func runScenario(cfg Config) (*Result, error) {
	names := spec.BuiltinNames()
	docs := make([]*spec.Document, len(names))
	for i, name := range names {
		doc, err := spec.LoadBuiltin(name)
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	runs, err := runScenarioDocs(cfg, docs)
	if err != nil {
		return nil, err
	}
	return buildScenarioResult("scenario", runs), nil
}

// RunSpec runs a user-supplied document through the same pipeline as the
// bundled scenario experiment (existbench -spec). Profile-only documents
// (no scenario section) render their compiled profiles instead.
func RunSpec(cfg Config, doc *spec.Document) (*Result, error) {
	if doc.Scenario == nil {
		cs, err := node.CompileScenario(doc)
		if err != nil {
			return nil, err
		}
		res := &Result{ID: "spec"}
		t := &tabular.Table{
			Title:  "Compiled workload profiles",
			Header: []string{"name", "class", "mode", "threads", "description"},
		}
		for _, p := range doc.Profiles {
			if p.Abstract {
				continue
			}
			cp, ok := cs.Profiles[p.Name]
			if !ok {
				continue
			}
			t.AddRow(cp.Name, cp.Class.String(), cp.Mode.String(),
				fmt.Sprintf("%d", cp.Threads), cp.Desc)
		}
		res.Tables = append(res.Tables, t)
		return res, nil
	}
	runs, err := runScenarioDocs(cfg, []*spec.Document{doc})
	if err != nil {
		return nil, err
	}
	return buildScenarioResult("spec", runs), nil
}
