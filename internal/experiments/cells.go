package experiments

import (
	"fmt"
	"sync"

	"exist/internal/binary"
	"exist/internal/decode"
	"exist/internal/memalloc"
	"exist/internal/node"
	"exist/internal/parallel"
	"exist/internal/service"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
)

// cell is one node window of an experiment: a workload under a scheme on a
// node spec. spec.Seed is the cell's perturbation; runCells folds cfg.Seed
// into it.
type cell struct {
	app    workload.Profile
	scheme SchemeKind
	spec   node.Spec
}

// runCells runs every cell through node.Run on cfg.Jobs workers and returns
// read's value for each, in cell order. Every experiment that windows a
// node goes through here, under one measurement convention: the machine
// seed is cfg.Seed ^ spec.Seed, the backend is the cell's scheme, and the
// timeslice is 1 ms unless the spec sets one, so round-robin quantization
// stays well below the per-mille effects being measured.
//
// The machine seed must NOT depend on the scheme: overhead comparisons are
// paired, so every scheme must see the identical workload realization
// (same syscall draws, same block durations). Per-thread RNG streams make
// the realization robust to the small timing shifts the schemes
// themselves introduce.
//
// read runs on the worker that ran the cell and should keep only what the
// experiment uses: the machine, backend and session die with the cell.
func runCells[T any](cfg Config, cells []cell, read func(i int, r node.Result) T) ([]T, error) {
	return parallel.MapErr(len(cells), cfg.Jobs, func(i int) (T, error) {
		c := cells[i]
		spec := c.spec
		spec.Workload = c.app
		spec.Backend = c.scheme.Backend()
		spec.Seed = cfg.Seed ^ spec.Seed
		if spec.Timeslice == 0 {
			spec.Timeslice = 1 * simtime.Millisecond
		}
		r, err := node.Run(spec)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("%s under %s: %w", c.app.Name, c.scheme, err)
		}
		return read(i, r), nil
	})
}

// numbers is the read for cells whose experiment needs only a run's
// counters: the machine, process, backend and session are dropped.
func numbers(_ int, r node.Result) node.Result {
	return node.Result{Stats: r.Stats, CPI: r.CPI, UtilFrac: r.UtilFrac, SpaceMB: r.SpaceMB, MSROps: r.MSROps}
}

// svcRun is one run of the ComposePost service chain: open loop over the
// schedule arrivals returns, or, when arrivals is nil, a closed loop of
// clients. clients also sizes an open-loop run's Result.ByClient.
type svcRun struct {
	chain service.ChainSpec
	ov    []service.Overhead
	dur   simtime.Duration
	// arrivals returns the run's schedule. The worker calls it when the
	// run starts, so a generated schedule lives only while its run does.
	arrivals func() []service.Arrival
	clients  int
}

// runServices runs every service run on cfg.Jobs workers and returns
// read's value for each, in run order. Every experiment that drives the
// service chain goes through here. read runs on the worker and should keep
// only what the experiment uses, such as a summary of the response times.
func runServices[T any](cfg Config, runs []svcRun, read func(i int, r service.Result) T) []T {
	return parallel.Map(len(runs), cfg.Jobs, func(i int) T {
		run := runs[i]
		if run.arrivals == nil {
			return read(i, service.RunClosedLoop(run.chain, run.clients, run.dur, run.ov))
		}
		return read(i, service.RunSchedule(run.chain, run.arrivals(), run.dur, run.clients, run.ov))
	})
}

// coRunners pairs co-located profiles with optional core pins under the
// measurement convention's seed offsets: the i-th co-runner installs at
// machine seed + 101·i.
func coRunners(ps []workload.Profile, cores [][]int) []node.CoRunner {
	out := make([]node.CoRunner, len(ps))
	for i, p := range ps {
		out[i] = node.CoRunner{Profile: p, SeedOffset: uint64(i) * 101}
		if cores != nil && i < len(cores) {
			out[i].Cores = cores[i]
		}
	}
	return out
}

// schemeRows runs every comparison scheme on each app's spec and returns,
// per app name, vs(scheme run, Oracle run) for each scheme.
func schemeRows(cfg Config, apps []workload.Profile, specs []node.Spec,
	vs func(r, base node.Result) float64) (map[string]map[SchemeKind]float64, error) {
	var cells []cell
	for i, p := range apps {
		for _, s := range ComparisonSchemes {
			cells = append(cells, cell{p, s, specs[i]})
		}
	}
	rs, err := runCells(cfg, cells, numbers)
	if err != nil {
		return nil, err
	}
	n := len(ComparisonSchemes)
	out := make(map[string]map[SchemeKind]float64, len(apps))
	for i, p := range apps {
		base := rs[i*n] // ComparisonSchemes[0] is the Oracle
		row := make(map[SchemeKind]float64, n)
		for j, s := range ComparisonSchemes {
			row[s] = vs(rs[i*n+j], base)
		}
		out[p.Name] = row
	}
	return out, nil
}

// memoSweep is one named scheme sweep in a RunAll's memo (Config.memo, a
// sync.Map by sweep name). It holds only the per-benchmark floats, never a
// node.Result, because a Result pins its whole machine.
type memoSweep struct {
	once sync.Once
	rows map[string]map[SchemeKind]float64
	err  error
}

// sweep returns the named sweep's rows. Within a RunAll the first caller
// runs it and later callers wait for and share its rows (tab03 averages
// what fig13 and fig14 measured); without a memo (a direct
// Experiment.Run) it always runs.
func (cfg Config) sweep(name string, run func() (map[string]map[SchemeKind]float64, error)) (map[string]map[SchemeKind]float64, error) {
	if cfg.memo == nil {
		return run()
	}
	v, _ := cfg.memo.LoadOrStore(name, &memoSweep{})
	e := v.(*memoSweep)
	e.once.Do(func() { e.rows, e.err = run() })
	return e.rows, e.err
}

// window is what a tracing-window cell keeps: its decoded profile and
// the session's trace size.
type window struct {
	rec *decode.Result // profile fields only: FuncEntries, CatHits, MemOps
	mb  float64
}

// windowCell declares one tracing window on a node hosting the
// walker-backed app plus a best-effort noise co-runner: EXIST's bounded
// session, or the exhaustive NHT reference when nhtRef is set. The warmup
// offset de-phases reference and subject runs, as two captures of a
// long-running service inevitably are.
func windowCell(noise, p workload.Profile, prog *binary.Program,
	period simtime.Duration, sampleRatio float64, seed uint64, nhtRef bool,
	warmup simtime.Duration) cell {
	c := cell{app: p, scheme: SchemeEXIST, spec: node.Spec{
		Cores:     16,
		Timeslice: 500 * simtime.Microsecond,
		Seed:      seed,
		Walker:    true,
		Scale:     trace.SpaceScale,
		Prog:      prog,

		CoRunners:    []node.CoRunner{{Profile: noise, SeedOffset: 55}},
		Housekeeping: true,
		Warmup:       warmup,
		Dur:          period,
		KeepSession:  true,
	}}
	if nhtRef {
		c.scheme = SchemeNHT
		c.spec.Tracer.FilterTarget = true
	} else {
		// EXIST's HRT closes the window itself; a short drain lets the
		// closing event fire before harvest.
		c.spec.Drain = 10 * simtime.Millisecond
		mem := memalloc.DefaultConfig()
		mem.SampleRatio = sampleRatio
		c.spec.Tracer.Mem = &mem
	}
	return c
}

// runWindows runs tracing-window cells and decodes each session on its
// worker against the cell's program.
func runWindows(cfg Config, cells []cell) ([]window, error) {
	return runCells(cfg, cells, func(i int, r node.Result) window {
		rec := decode.Decode(r.Session, cells[i].spec.Prog)
		return window{
			rec: &decode.Result{FuncEntries: rec.FuncEntries, CatHits: rec.CatHits, MemOps: rec.MemOps},
			mb:  r.Session.SpaceMB(),
		}
	})
}

// recs returns the decoded profiles of windows.
func recs(ws []window) []*decode.Result {
	out := make([]*decode.Result, len(ws))
	for i, w := range ws {
		out[i] = w.rec
	}
	return out
}
