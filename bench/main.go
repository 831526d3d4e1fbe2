// Command exist-bench is the repository benchmark: it drives the EXIST
// simulator's layers through their Go APIs on four named workloads, times
// each op, checks the outputs, and prints one JSON result line. See
// README.md for the workloads, the metrics and how to compare two commits.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -compare <parent.jsonl> <change.jsonl>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

// output is the result line, the last line the benchmark prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a results file: a result tagged with what ran.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	output
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("exist-bench", flag.ContinueOnError)
	all := workloads(fullSize)
	var names []string
	for _, w := range all {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1: trace alternate passes, write spans.jsonl and cpu.pprof, print the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for a traced run's spans.jsonl and cpu.pprof")
	appendTo := fs.String("append", "", "also append the result, tagged with workload and seed, to this JSONL file")
	compare := fs.Bool("compare", false, "compare two results files: -compare <parent.jsonl> <change.jsonl>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare <parent.jsonl> <change.jsonl>")
			return 2
		}
		if err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	var w *benchWorkload
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(names, "|"))
		return 2
	}

	// The load comes from this one process on at most two cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	traced := *trace == 1
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	specs, values := endToEnd, res.e2e
	if traced {
		specs, values = perLayer, res.layer
		dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, *seed))
		if err := writeTrace(dir, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	o := output{Attempted: res.chk.attempted, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.chk.fail("metric.finite", "%s is %v", m.name, v)
			v = 0
		}
		o.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if o.Attempted == 0 {
		res.chk.fail("run.attempted", "no operation was attempted")
		o.Attempted = 1
	}
	o.Failed = res.chk.failed
	o.Correct = o.Failed == 0
	if *appendTo != "" {
		if err := appendRecord(*appendTo, record{Workload: w.name, Seed: *seed, Trace: *trace, output: o}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !o.Correct {
		fmt.Fprintf(os.Stderr, "failed checks: %s\n", strings.Join(res.chk.names(), ", "))
		return 1
	}
	return 0
}

// writeTrace writes a traced run's spans and CPU profile into dir.
func writeTrace(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), res.spans); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), res.profile, 0o644)
}

// appendRecord appends one result line to a results file.
func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
