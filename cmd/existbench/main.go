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

	"exist/internal/decode"
	"exist/internal/experiments"
	"exist/internal/hotbench"
	"exist/internal/hotbench/clusterbench"
	"exist/internal/hotbench/litebench"
	"exist/internal/hotbench/livenessbench"
	"exist/internal/hotbench/mergebench"
	"exist/internal/hotbench/storebench"
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
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
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
		fmt.Print(rep.Result.Render())
		if len(rep.Result.Metrics) > 0 {
			fmt.Println("headline metrics:")
			for _, n := range rep.Result.SortedMetrics() {
				fmt.Printf("  %-36s %.4g\n", n, rep.Result.Metrics[n])
			}
		}
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
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "existbench:", err)
			os.Exit(1)
		}
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
	fmt.Print(res.Render())
	if len(res.Metrics) > 0 {
		fmt.Println("headline metrics:")
		for _, n := range res.SortedMetrics() {
			fmt.Printf("  %-36s %.4g\n", n, res.Metrics[n])
		}
	}
	return nil
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

// benchResult is one hot-path microbenchmark measurement.
type benchResult struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// prePRBaselines are the hot-path numbers measured at the commit before
// each optimization PR landed (same fixtures, -benchmem), recorded so
// regressions and the optimization headroom stay visible — the same
// convention as the publishedSOTA rows in Table 3. decode_hot/encode_hot
// predate the parallel-harness PR; sched_hot/tracer_hot predate the
// simulation-engine fast path (per-event closure emission, per-packet
// output, container/heap event queue); engine_hot predates same-instant
// runs in the event queue (one heap entry per pending timer);
// lite_session predates the dense-index Lite control plane (string-keyed
// in-flight and used-node maps, copied blobs, an append-only watch
// buffer); node_liveness predates the lease sweep and node-fault
// timetable (one heartbeat timer per node, one crash and one churn
// closure chain per node); merge_hot predates the profile-only merge
// (every worker's per-thread streams appended into one map); store_put
// predates the one-write blob store (a byte-ledger probe before each
// blob write, the batch key's attempt ledger probed on every put).
var prePRBaselines = map[string]benchResult{
	"decode_hot":    {NsPerOp: 22_900_000, AllocsPerOp: 1195, BytesPerOp: 15_402_504},
	"encode_hot":    {NsPerOp: 21_900_000, AllocsPerOp: 20, BytesPerOp: 67_111_138},
	"engine_hot":    {NsPerOp: 20_733_180, AllocsPerOp: 0, BytesPerOp: 0},
	"lite_session":  {NsPerOp: 8_256, AllocsPerOp: 25, BytesPerOp: 2_681},
	"merge_hot":     {NsPerOp: 8_885_681, AllocsPerOp: 53, BytesPerOp: 19_499_556},
	"node_liveness": {NsPerOp: 43_227_120, AllocsPerOp: 5858, BytesPerOp: 184_625},
	"sched_hot":     {NsPerOp: 63_196, AllocsPerOp: 178, BytesPerOp: 9_025},
	"store_put":     {NsPerOp: 427, AllocsPerOp: 0, BytesPerOp: 0},
	"tracer_hot":    {NsPerOp: 1_478_338, AllocsPerOp: 0, BytesPerOp: 0},
}

// datapathStats records the decode-hot fixture session's v1-equivalent
// size (trace.V1Size) and its exact packed wire size.
type datapathStats struct {
	V1Bytes       int64   `json:"v1_bytes"`
	V2PackedBytes int64   `json:"v2_packed_bytes"`
	PackedRatio   float64 `json:"packed_ratio"`
}

// measureHotPaths runs the hot-path microbenchmarks on the shared
// hotbench fixtures and measures the wire-format sizes.
func measureHotPaths() (map[string]benchResult, datapathStats) {
	hot := map[string]benchResult{}
	const budget = 4_000_000
	decProg := hotbench.Program(1)
	decSess := hotbench.Session(decProg, 1, budget)
	var decBytes int64
	for _, c := range decSess.Cores {
		decBytes += int64(len(c.Data))
	}
	hot["decode_hot"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.SetBytes(decBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decode.Decode(decSess, decProg)
		}
	}))
	// Cluster-level coverage merge: ten workers' decodes of one program
	// folded into the augmented profile, one merge per op.
	mb := mergebench.New()
	hot["merge_hot"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mb.Merge()
		}
	}))
	encProg := hotbench.Program(2)
	encBytes := hotbench.EncodeOnce(encProg, 2, budget)
	hot["encode_hot"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.SetBytes(encBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hotbench.EncodeOnce(encProg, 2, budget)
		}
	}))

	// Simulation-engine hot paths: the walker segment loop end to end, and
	// the tracer's batched packet-generation path on recorded walker batches.
	sb := hotbench.NewSchedBench(1)
	windowBytes := sb.RunWindow()
	hot["sched_hot"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.SetBytes(windowBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sb.RunWindow()
		}
	}))
	trBatches := hotbench.Events(hotbench.Program(1), 1, 2_000_000)
	trHot := hotbench.NewHotTracer(1 << 20)
	trBytes := hotbench.TracerHotOnce(trHot, trBatches)
	hot["tracer_hot"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.SetBytes(trBytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hotbench.TracerHotOnce(trHot, trBatches)
		}
	}))

	// Simulation-clock hot path: the fleet's in-phase heartbeats, one
	// period per op. It allocates nothing once the free list is warm.
	eb := hotbench.NewEngineBench()
	hot["engine_hot"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eb.RunPeriod()
		}
	}))

	// Machine-node event shape: eight cores' chained segment ends,
	// same-instant dispatches and wake timers, 10 ms of simulated time
	// per op. It allocates nothing once the free list is warm.
	cb := hotbench.NewChainBench()
	hot["engine_chain"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cb.RunWindow()
		}
	}))

	// Control-plane hot path: one Lite session opened, finished and
	// uploaded on a warm cluster (request filed, completed and deleted).
	lb := litebench.New()
	hot["lite_session"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lb.Session()
		}
	}))

	// Object-store hot path: one 1-blob PutBatch of a fresh key into a
	// warm 8-shard store; the periodic reset runs outside the timer.
	sp := storebench.New()
	hot["store_put"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sp.Put() {
				b.StopTimer()
				sp.Reset()
				b.StartTimer()
			}
		}
	}))

	// Node liveness at fleet scale: one simulated second of a warm
	// 100k-node Lite cluster with the fleet's faults and no requests.
	nl := livenessbench.New()
	hot["node_liveness"] = toBenchResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nl.Second()
		}
	}))

	// Machine-node scheduling path: one 6-node walker scenario per op,
	// its per-node engines advanced on one and on two workers. Setup is
	// outside the timer.
	for _, jobs := range []int{1, 2} {
		hot[fmt.Sprintf("cluster_nodes_j%d", jobs)] = toBenchResult(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := clusterbench.New(jobs)
				b.StartTimer()
				s.Run()
			}
		}))
	}

	// Wire-format hot paths, normalized to v1-equivalent bytes so the MB/s
	// columns track the session size rather than the compressed blob.
	v1Bytes := int64(trace.V1Size(decSess))
	bench := func(name string, fn func()) {
		hot[name] = toBenchResult(testing.Benchmark(func(b *testing.B) {
			b.SetBytes(v1Bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		}))
	}
	bench("marshal_hot_packed", func() { decSess.Marshal() })
	packedBlob := decSess.Marshal()
	bench("unmarshal_hot_packed", func() { trace.UnmarshalSession(packedBlob) })

	dp := datapathStats{
		V1Bytes:       v1Bytes,
		V2PackedBytes: int64(len(packedBlob)),
	}
	dp.PackedRatio = float64(dp.V1Bytes) / float64(dp.V2PackedBytes)
	return hot, dp
}

// benchFile is the serialized benchmark snapshot (BENCH_harness.json).
// GOMAXPROCS records the configuration the baseline was measured under, so
// -benchcheck can refuse to compare throughput across unlike machines.
type benchFile struct {
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Jobs       int                    `json:"jobs"`
	HotPaths   map[string]benchResult `json:"hot_paths"`
	Datapath   *datapathStats         `json:"datapath,omitempty"`
}

// hotPathRuns is how many times -benchjson and -benchcheck measure the
// hot paths. Both record each row's median, so one pass disturbed by host
// noise moves neither the baseline nor the check.
const hotPathRuns = 3

// measureHotPathMedians runs measureHotPaths hotPathRuns times and returns
// each row's median with the (deterministic) wire-format sizes.
func measureHotPathMedians() (map[string]benchResult, datapathStats) {
	runs := make([]map[string]benchResult, hotPathRuns)
	var dp datapathStats
	for i := range runs {
		runs[i], dp = measureHotPaths()
	}
	return medianRows(runs), dp
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
func medianRows(runs []map[string]benchResult) map[string]benchResult {
	out := map[string]benchResult{}
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
		out[name] = benchResult{
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
func rowMismatch(base, measured map[string]benchResult) (unmeasured, unrecorded []string) {
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
		HotPaths    map[string]benchResult `json:"hot_paths"`
		Datapath    datapathStats          `json:"datapath"`
		PrePR       map[string]benchResult `json:"pre_pr_baseline"`
	}{
		Quick:       cfg.Quick,
		Seed:        cfg.Seed,
		Jobs:        parallel.Workers(cfg.Jobs),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		TotalWallMS: float64(total) / float64(time.Millisecond),
		HotPaths:    hot,
		Datapath:    dp,
		PrePR:       prePRBaselines,
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

func toBenchResult(r testing.BenchmarkResult) benchResult {
	out := benchResult{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if sec := r.T.Seconds(); sec > 0 {
		out.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / sec
	}
	return out
}
