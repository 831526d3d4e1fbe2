// Command existd drives one simulated node running the EXIST tracing
// facility: it installs a workload (plus a co-located best-effort filler),
// opens a bounded tracing session, and prints the session summary and the
// decoded execution profile — the node-level "daemon" view of the system.
//
// The daemon is a thin shell over the node runtime: it provisions a
// node.Spec, attaches the EXIST backend through tracer.New, runs the
// window, and harvests the session.
//
// Usage:
//
//	existd -app Search1 -period 500ms -cores 16 -budget-mb 500
//	existd -spec traffic.yaml -period 500ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"exist/internal/decode"
	"exist/internal/memalloc"
	"exist/internal/node"
	"exist/internal/obs"
	"exist/internal/report"
	"exist/internal/simtime"
	"exist/internal/spec"
	"exist/internal/trace"
	"exist/internal/tracer"
	"exist/internal/workload"
)

func main() {
	var (
		appName  = flag.String("app", "Search1", "workload profile to trace (see -list)")
		specFile = flag.String("spec", "", "scenario spec document: trace its app on its node placement (overrides -app/-cores)")
		list     = flag.Bool("list", false, "list workload profiles and exit")
		period   = flag.Duration("period", 500*time.Millisecond, "tracing period (0.1s-2s)")
		cores    = flag.Int("cores", 16, "node core count")
		budgetMB = flag.Int64("budget-mb", 500, "tracing memory budget")
		ratio    = flag.Float64("sample-ratio", 0, "coreset sampling ratio for CPU-share apps (0 = auto)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		dump     = flag.String("dump", "", "write the serialized session to this file (decode offline with existdecode)")
	)
	flag.Parse()

	if *list {
		for _, p := range workload.All() {
			fmt.Printf("%-8s %-9s %s\n", p.Name, p.Class, p.Desc)
		}
		return
	}

	p, err := workload.ByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	filler, err := workload.ByName("Cache")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	coRunners := []node.CoRunner{{Profile: filler, SeedOffset: 1}}
	nodeCores, nodeSeed, threads := *cores, *seed, 0
	if *specFile != "" {
		app, placed, err := loadSpecPlacement(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spec:", err)
			os.Exit(2)
		}
		p = app
		coRunners = placed.CoRunners
		if placed.Cores > 0 {
			nodeCores = placed.Cores
		}
		if placed.Seed != 0 {
			nodeSeed = placed.Seed
		}
		threads = placed.Threads
	}

	prog := node.Program(p, nodeSeed)
	rt := node.Provision(node.Spec{
		Cores:     nodeCores,
		HT:        true,
		Seed:      nodeSeed,
		Threads:   threads,
		Timeslice: 1 * simtime.Millisecond,
		Workload:  p,
		Walker:    true,
		Scale:     trace.SpaceScale,
		Prog:      prog,
		CoRunners: coRunners,
		Warmup:    100 * simtime.Millisecond,
		Dur:       simtime.Duration(period.Nanoseconds()),
		Drain:     10 * simtime.Millisecond,
		Backend:   "EXIST",
		Tracer: tracer.Options{
			Mem:       &memalloc.Config{Budget: *budgetMB << 20, PerCoreMin: 4 << 20, PerCoreMax: 128 << 20, SampleRatio: *ratio},
			SessionID: "existd-session",
		},
		KeepSession: true,
	})
	m := rt.Machine

	fmt.Printf("existd: node with %d cores; tracing %s (%s, %d threads, %s) for %v\n",
		nodeCores, p.Name, p.Desc, p.Threads, rt.Proc.Mode, *period)

	// Warm up, then open the session (EXIST is triggered on demand).
	if err := rt.Attach(); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	sess := rt.Backend.(*tracer.EXIST).CoreSession()
	fmt.Printf("existd: UMA plan: %d traced cores (ratio %.0f%%), %.0f MB allocated\n",
		len(sess.Plan.Cores), sess.Plan.SampleRatio*100, float64(sess.Plan.TotalBytes)/(1<<20))

	rt.Run()
	r, err := rt.Harvest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "result:", err)
		os.Exit(1)
	}
	result := r.Session

	fmt.Printf("existd: window %v; %.1f MB trace (real scale)\n", result.Duration(), result.SpaceMB())
	fmt.Println("existd: session counters:")
	obs.Write(os.Stdout, "  ", "core.", sess.Stats)
	obs.Write(os.Stdout, "  ", "sched.", m.Stats)
	obs.Write(os.Stdout, "  ", "sched.target.", r.Stats)
	fmt.Printf("existd: control ops: %d cores enabled once each (O(#cores), not O(%d switches))\n",
		sess.Stats.EnabledCores, m.Stats.Switches)

	if *dump != "" {
		// The same encoding the cluster uploads; existdecode reads it back.
		if err := os.WriteFile(*dump, result.Marshal(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dump:", err)
			os.Exit(1)
		}
		fmt.Printf("existd: session written to %s (decode with: existdecode -app %s -seed %d -in %s)\n",
			*dump, p.Name, nodeSeed, *dump)
	}

	rec := decode.Decode(result, prog)
	fmt.Printf("existd: decoded %d control-flow events across %d threads (%d decode notes)\n",
		rec.Events, len(rec.ByThread()), len(rec.Errors))

	fmt.Println("existd: hottest functions (by traced indirect-call entries):")
	for i, fc := range report.RankFunctions(rec, prog) {
		if i >= 10 {
			break
		}
		fmt.Printf("  %6d  %s\n", fc.N, fc.Name)
	}
}

// loadSpecPlacement reads a scenario document (spec.Load: a file path or
// a bundled scenario name) and returns the traced app plus the node spec
// its placement lowers to.
func loadSpecPlacement(path string) (workload.Profile, node.Spec, error) {
	doc, err := spec.Load(path)
	if err != nil {
		return workload.Profile{}, node.Spec{}, err
	}
	if doc.Scenario == nil || doc.Scenario.App == "" {
		return workload.Profile{}, node.Spec{}, fmt.Errorf("%s: document needs a scenario with an app to trace", doc.Src)
	}
	sc, err := node.CompileScenario(doc)
	if err != nil {
		return workload.Profile{}, node.Spec{}, err
	}
	return sc.App, sc.Node, nil
}
