// Command existbench regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	existbench -list                 # show experiment IDs and bundled scenarios
//	existbench -run fig13,tab04      # run specific experiments
//	existbench -spec traffic.yaml    # run a scenario spec document end to end
//	existbench -spec diurnal         # run a bundled scenario by name
//	existbench -all                  # run everything
//	existbench -all -quick           # reduced durations (CI-sized)
//	existbench -all -jobs 8          # run experiments on 8 workers
//	existbench -all -benchjson out.json   # machine-readable timings
//
// Output is plain-text tables; each carries notes stating what the paper
// reports for the same artifact. Stdout is byte-identical for any -jobs
// value (timing lines go to stderr), so CI can diff parallel against
// serial runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"strings"
	"testing"
	"time"

	"exist/internal/experiments"
	"exist/internal/hotbench/rows"
	"exist/internal/parallel"
	"exist/internal/spec"
	"exist/internal/trace"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiment IDs and bundled scenarios, then exit")
		run        = flag.String("run", "", "comma-separated experiment IDs to run")
		all        = flag.Bool("all", false, "run every experiment")
		specFile   = flag.String("spec", "", "run a scenario spec document (JSON or YAML) end to end")
		quick      = flag.Bool("quick", false, "reduced durations and sweep sizes")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		jobs       = flag.Int("jobs", 0, "worker count for experiment and sweep fan-out (0: GOMAXPROCS, 1: serial)")
		benchJSON  = flag.String("benchjson", "", "write machine-readable wall times and hot-path benchmarks to this file")
		benchCheck = flag.String("benchcheck", "", "compare freshly measured hot paths against this baseline JSON and fail on regression")
		benchTol   = flag.Float64("benchtol", 0.2, "relative tolerance for -benchcheck (0.2 = ±20%)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		execTrace  = flag.String("exectrace", "", "write a runtime/trace execution trace to this file (inspect with go tool trace)")
	)
	flag.Parse()

	if *benchCheck != "" {
		if err := runBenchCheck(*benchCheck, *benchTol); err != nil {
			fmt.Fprintln(os.Stderr, "existbench: bench regression:", err)
			os.Exit(1)
		}
		fmt.Println("bench check passed")
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
			fmt.Printf("%-16s paper: %s\n", "", e.Paper)
		}
		fmt.Println()
		fmt.Println("bundled scenarios (run the scenario experiment, or any one with -spec):")
		for _, name := range spec.BuiltinNames() {
			doc, err := spec.LoadBuiltin(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "existbench:", err)
				os.Exit(1)
			}
			fmt.Printf("%-16s %s\n", name, doc.Desc)
		}
		return
	}

	if *specFile != "" {
		if err := runSpecFile(*specFile, experiments.Config{Quick: *quick, Seed: *seed, Jobs: *jobs}); err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
		return
	}

	ids, err := selectIDs(*all, *run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "existbench:", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f := create(*cpuProfile)
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f := create(*execTrace)
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
		defer rtrace.Stop()
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Jobs: *jobs}
	start := time.Now()
	reports := experiments.RunAll(cfg, ids)
	total := time.Since(start)

	failures := 0
	for _, rep := range reports {
		fmt.Printf("### %s — %s\n", rep.ID, rep.Title)
		fmt.Printf("### paper: %s\n\n", rep.Paper)
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", rep.ID, rep.Err)
			failures++
			continue
		}
		printResult(rep.Result)
		fmt.Println()
		fmt.Fprintf(os.Stderr, "%s completed in %v\n", rep.ID, rep.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "total wall time %v (%d experiments, jobs=%d)\n",
		total.Round(time.Millisecond), len(reports), parallel.Workers(*jobs))

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, cfg, reports, total); err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			failures++
		}
	}
	if *memProfile != "" {
		f := create(*memProfile)
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// runSpecFile loads a scenario document — a file path, or the name of a
// bundled scenario (spec.Load) — and runs it end to end through the same
// pipeline as the scenario experiment.
func runSpecFile(path string, cfg experiments.Config) error {
	doc, err := spec.Load(path)
	if err != nil {
		return err
	}
	res, err := experiments.RunSpec(cfg, doc)
	if err != nil {
		return err
	}
	name := doc.Name
	if name == "" {
		name = doc.Src
	}
	fmt.Printf("### spec — %s\n", name)
	if doc.Desc != "" {
		fmt.Printf("### %s\n", doc.Desc)
	}
	fmt.Println()
	printResult(res)
	return nil
}

// create opens a profile or trace output file, exiting on failure.
func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "existbench:", err)
		os.Exit(1)
	}
	return f
}

// printResult writes a result's tables, then its headline metrics.
func printResult(res *experiments.Result) {
	fmt.Print(res.Render())
	if len(res.Metrics) > 0 {
		fmt.Println("headline metrics:")
		for _, n := range res.SortedMetrics() {
			fmt.Printf("  %-36s %.4g\n", n, res.Metrics[n])
		}
	}
}

// selectIDs resolves the -all/-run selection into a validated, deduplicated
// ID list. Unknown or duplicate IDs fail before any experiment runs.
func selectIDs(all bool, run string) ([]string, error) {
	if all {
		var ids []string
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		return ids, nil
	}
	if run == "" {
		return nil, fmt.Errorf("nothing to do (use -list, -run or -all)")
	}
	seen := make(map[string]bool)
	var ids []string
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, err := experiments.ByID(id); err != nil {
			return nil, err
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment IDs in -run %q", run)
	}
	return ids, nil
}

// datapathStats records the wire-session fixture's v1-equivalent size
// (trace.V1Size) and its exact packed wire size.
type datapathStats struct {
	V1Bytes       int64   `json:"v1_bytes"`
	V2PackedBytes int64   `json:"v2_packed_bytes"`
	PackedRatio   float64 `json:"packed_ratio"`
}

// measureHotPaths measures every row of the hot-path table once.
func measureHotPaths() map[string]rows.Result {
	hot := map[string]rows.Result{}
	for _, row := range rows.All() {
		hot[row.Name] = toBenchResult(testing.Benchmark(row.New().Bench))
	}
	return hot
}

// measureDatapath measures the wire-format sizes of the wire session.
func measureDatapath() datapathStats {
	_, sess := rows.WireSession()
	dp := datapathStats{
		V1Bytes:       int64(trace.V1Size(sess)),
		V2PackedBytes: int64(len(sess.Marshal())),
	}
	dp.PackedRatio = float64(dp.V1Bytes) / float64(dp.V2PackedBytes)
	return dp
}

// benchFile is the serialized benchmark snapshot (BENCH_harness.json).
// GOMAXPROCS records the configuration the baseline was measured under, so
// -benchcheck can refuse to compare throughput across unlike machines.
type benchFile struct {
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Jobs       int                    `json:"jobs"`
	HotPaths   map[string]rows.Result `json:"hot_paths"`
	Datapath   *datapathStats         `json:"datapath,omitempty"`
}

// hotPathRuns is how many times -benchjson and -benchcheck measure the
// hot paths. Both record each row's median, so one pass disturbed by host
// noise moves neither the baseline nor the check.
const hotPathRuns = 3

// measureHotPathMedians runs measureHotPaths hotPathRuns times and returns
// each row's median with the (deterministic) wire-format sizes.
func measureHotPathMedians() (map[string]rows.Result, datapathStats) {
	runs := make([]map[string]rows.Result, hotPathRuns)
	for i := range runs {
		runs[i] = measureHotPaths()
	}
	return medianRows(runs), measureDatapath()
}

// runBenchCheck re-measures the hot paths' medians and fails if a row's
// allocs/op or MB/s regressed beyond tol against the recorded baseline,
// or if the packed compression ratio dropped. Improvements always pass.
// Throughput is only
// compared like-for-like: when the baseline was recorded under a different
// GOMAXPROCS, MB/s rows are informational and only the scheduler-independent
// metrics (allocs/op, compression ratio) gate.
func runBenchCheck(path string, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	sameConfig := base.GOMAXPROCS == 0 || base.GOMAXPROCS == runtime.GOMAXPROCS(0)
	if !sameConfig {
		fmt.Printf("baseline measured at GOMAXPROCS=%d, this run is %d: throughput rows informational only\n",
			base.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	hot, dp := measureHotPathMedians()
	var problems []string
	// A renamed or retargeted hot path must take its gate along to a
	// regenerated baseline, never drop it silently.
	unmeasured, unrecorded := rowMismatch(base.HotPaths, hot)
	if len(unmeasured) > 0 {
		problems = append(problems, "baseline rows this binary does not measure: "+strings.Join(unmeasured, ", "))
	}
	if len(unrecorded) > 0 {
		problems = append(problems, "measured rows missing from the baseline: "+strings.Join(unrecorded, ", "))
	}
	names := make([]string, 0, len(base.HotPaths))
	for name := range base.HotPaths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.HotPaths[name]
		got, ok := hot[name]
		if !ok {
			continue
		}
		if float64(got.AllocsPerOp) > float64(want.AllocsPerOp)*(1+tol)+0.5 {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs/op %d exceeds baseline %d by more than %.0f%%",
				name, got.AllocsPerOp, want.AllocsPerOp, tol*100))
		}
		if sameConfig && want.MBPerS > 0 && got.MBPerS < want.MBPerS*(1-tol) {
			problems = append(problems, fmt.Sprintf(
				"%s: %.1f MB/s is more than %.0f%% below baseline %.1f MB/s",
				name, got.MBPerS, tol*100, want.MBPerS))
		}
		fmt.Printf("%-22s %9.1f MB/s (baseline %9.1f)  %5d allocs/op (baseline %5d)\n",
			name, got.MBPerS, want.MBPerS, got.AllocsPerOp, want.AllocsPerOp)
	}
	if base.Datapath != nil {
		fmt.Printf("%-22s %9.2fx (baseline %9.2fx)\n", "packed_ratio", dp.PackedRatio, base.Datapath.PackedRatio)
		if dp.PackedRatio < base.Datapath.PackedRatio*(1-tol) {
			problems = append(problems, fmt.Sprintf(
				"packed compression ratio %.2fx is more than %.0f%% below baseline %.2fx",
				dp.PackedRatio, tol*100, base.Datapath.PackedRatio))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// medianRows returns, for every row of the runs (each run measures the
// same rows), the median of each field taken independently across runs.
func medianRows(runs []map[string]rows.Result) map[string]rows.Result {
	out := map[string]rows.Result{}
	for name := range runs[0] {
		var ns, allocs, bytes []int64
		var mbps []float64
		for _, run := range runs {
			r := run[name]
			ns = append(ns, r.NsPerOp)
			allocs = append(allocs, r.AllocsPerOp)
			bytes = append(bytes, r.BytesPerOp)
			mbps = append(mbps, r.MBPerS)
		}
		out[name] = rows.Result{
			NsPerOp:     median(ns),
			AllocsPerOp: median(allocs),
			BytesPerOp:  median(bytes),
			MBPerS:      median(mbps),
		}
	}
	return out
}

// median returns the middle value of vs (the upper middle for an even
// count). It sorts vs in place.
func median[T int64 | float64](vs []T) T {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs[len(vs)/2]
}

// rowMismatch returns, sorted, the baseline rows absent from the
// measurement and the measured rows absent from the baseline.
func rowMismatch(base, measured map[string]rows.Result) (unmeasured, unrecorded []string) {
	for name := range base {
		if _, ok := measured[name]; !ok {
			unmeasured = append(unmeasured, name)
		}
	}
	for name := range measured {
		if _, ok := base[name]; !ok {
			unrecorded = append(unrecorded, name)
		}
	}
	sort.Strings(unmeasured)
	sort.Strings(unrecorded)
	return unmeasured, unrecorded
}

// writeBenchJSON emits per-experiment wall times plus freshly measured
// hot-path microbenchmark medians on the shared hotbench fixtures.
func writeBenchJSON(path string, cfg experiments.Config, reports []experiments.RunReport, total time.Duration) error {
	// cpu_ms is the process CPU consumed during the experiment's wall
	// window — exact per-ID attribution only when jobs=1 (see RunReport.CPU).
	type expTime struct {
		ID     string  `json:"id"`
		WallMS float64 `json:"wall_ms"`
		CPUMS  float64 `json:"cpu_ms"`
		Failed bool    `json:"failed,omitempty"`
	}
	hot, dp := measureHotPathMedians()
	out := struct {
		Quick       bool                   `json:"quick"`
		Seed        uint64                 `json:"seed"`
		Jobs        int                    `json:"jobs"`
		GOMAXPROCS  int                    `json:"gomaxprocs"`
		Experiments []expTime              `json:"experiments"`
		TotalWallMS float64                `json:"total_wall_ms"`
		HotPaths    map[string]rows.Result `json:"hot_paths"`
		Datapath    datapathStats          `json:"datapath"`
		PrePR       map[string]rows.Result `json:"pre_pr_baseline"`
	}{
		Quick:       cfg.Quick,
		Seed:        cfg.Seed,
		Jobs:        parallel.Workers(cfg.Jobs),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		TotalWallMS: float64(total) / float64(time.Millisecond),
		HotPaths:    hot,
		Datapath:    dp,
		PrePR:       rows.PrePR(),
	}
	for _, rep := range reports {
		out.Experiments = append(out.Experiments, expTime{
			ID:     rep.ID,
			WallMS: float64(rep.Wall) / float64(time.Millisecond),
			CPUMS:  float64(rep.CPU) / float64(time.Millisecond),
			Failed: rep.Err != nil,
		})
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func toBenchResult(r testing.BenchmarkResult) rows.Result {
	out := rows.Result{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if sec := r.T.Seconds(); sec > 0 {
		out.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / sec
	}
	return out
}
