package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// TestParallelDeterminism verifies the harness's core contract: a sweep
// experiment produces byte-identical tables and identical metrics whether
// its cells run serially or on many workers. fig13 is a scheme sweep;
// fig15 and tab04 run app × scheme grids as one flat cell list; chaos,
// ctrlplane, datapath and fig17 run their clusters as one fleet list;
// fig03b, fig16, fig14 and scenario run their service chains as one
// service list.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig13", "fig15", "tab04", "chaos", "ctrlplane", "datapath", "fig17",
		"fig03b", "fig16", "fig14", "scenario"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			runWith := func(jobs int) *Result {
				res, err := e.Run(Config{Quick: true, Seed: 1, Jobs: jobs})
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				return res
			}
			serial := runWith(1)
			par := runWith(8)
			if got, want := par.Render(), serial.Render(); got != want {
				t.Errorf("rendered tables differ between jobs=1 and jobs=8:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
			if got, want := len(par.Metrics), len(serial.Metrics); got != want {
				t.Fatalf("metric count differs: jobs=8 has %d, jobs=1 has %d", got, want)
			}
			for name, want := range serial.Metrics {
				if got, ok := par.Metrics[name]; !ok || got != want {
					t.Errorf("metric %s: jobs=8 %v, jobs=1 %v", name, got, want)
				}
			}
		})
	}
}

// TestRunAllSharesSweeps checks the per-RunAll sweep memo: tab03 run after
// (or alongside) fig13 and fig14 reads their sweeps instead of re-running
// them, and must still render exactly what tab03 computes on its own.
func TestRunAllSharesSweeps(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1, Jobs: 1}
	e, err := ByID("tab03")
	if err != nil {
		t.Fatal(err)
	}
	alone, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			cfg := cfg
			cfg.Jobs = jobs
			reports := RunAll(cfg, []string{"fig13", "fig14", "tab03"})
			for _, rep := range reports {
				if rep.Err != nil {
					t.Fatalf("%s: %v", rep.ID, rep.Err)
				}
			}
			shared := reports[2].Result
			if got, want := shared.Render(), alone.Render(); got != want {
				t.Errorf("tab03 in RunAll differs from tab03 alone:\n--- alone ---\n%s\n--- RunAll ---\n%s", want, got)
			}
			if got, want := len(shared.Metrics), len(alone.Metrics); got != want {
				t.Fatalf("metric count %d, want %d", got, want)
			}
			for name, want := range alone.Metrics {
				if got, ok := shared.Metrics[name]; !ok || got != want {
					t.Errorf("metric %s: RunAll %v, alone %v", name, got, want)
				}
			}
		})
	}
}

// TestNodeParallelDeterminism pins the node-parallel path's contract: the
// resilience experiment — whose fault levels fan out across workers AND
// whose clusters advance their per-node engines on Jobs goroutines —
// must render byte-identically with exactly equal metrics for every
// combination of jobs and GOMAXPROCS. This is the property that lets CI
// diff parallel stdout against serial golden output.
func TestNodeParallelDeterminism(t *testing.T) {
	e, err := ByID("resilience")
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(jobs, procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := e.Run(Config{Quick: true, Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d procs=%d: %v", jobs, procs, err)
		}
		return res
	}
	ref := runWith(1, 1)
	for _, tc := range []struct{ jobs, procs int }{
		{1, 4}, {4, 1}, {4, 4},
	} {
		t.Run(fmt.Sprintf("jobs=%d,procs=%d", tc.jobs, tc.procs), func(t *testing.T) {
			got := runWith(tc.jobs, tc.procs)
			if got.Render() != ref.Render() {
				t.Errorf("rendered output differs from jobs=1,procs=1:\n--- ref ---\n%s\n--- got ---\n%s",
					ref.Render(), got.Render())
			}
			if len(got.Metrics) != len(ref.Metrics) {
				t.Fatalf("metric count %d, want %d", len(got.Metrics), len(ref.Metrics))
			}
			for name, want := range ref.Metrics {
				if v, ok := got.Metrics[name]; !ok || v != want {
					t.Errorf("metric %s: got %v, want exactly %v", name, v, want)
				}
			}
		})
	}
}

// TestRunAllOrderAndErrors checks that RunAll returns reports in input
// order and isolates failures to their own report.
func TestRunAllOrderAndErrors(t *testing.T) {
	ids := []string{"fig11", "no-such-exp", "tab05"}
	reports := RunAll(Config{Quick: true, Seed: 1, Jobs: 4}, ids)
	if len(reports) != len(ids) {
		t.Fatalf("got %d reports, want %d", len(reports), len(ids))
	}
	for i, id := range ids {
		if reports[i].ID != id {
			t.Fatalf("report %d is %q, want %q", i, reports[i].ID, id)
		}
	}
	if reports[1].Err == nil {
		t.Error("unknown ID did not produce an error report")
	}
	for _, i := range []int{0, 2} {
		if reports[i].Err != nil {
			t.Errorf("%s failed: %v", reports[i].ID, reports[i].Err)
		}
		if reports[i].Result == nil {
			t.Errorf("%s has no result", reports[i].ID)
		}
	}
}

// TestRepeatedRunDeterminism runs a representative experiment subset twice
// on fresh engines with the same seed and requires byte-identical rendered
// output and identical metrics. This is the property that lets golden
// stdout diffs gate engine fast-path rewrites; fig14 covers walker-exact
// tracing, fig18 the analytic efficiency path, tab03 the tabular summary
// pipeline.
func TestRepeatedRunDeterminism(t *testing.T) {
	for _, id := range []string{"fig14", "fig18", "tab03"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			run := func() *Result {
				res, err := e.Run(Config{Quick: true, Seed: 1, Jobs: 2})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := run()
			second := run()
			if got, want := second.Render(), first.Render(); got != want {
				t.Errorf("rendered output differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", want, got)
			}
			if got, want := len(second.Metrics), len(first.Metrics); got != want {
				t.Fatalf("metric count differs: second run has %d, first has %d", got, want)
			}
			for name, want := range first.Metrics {
				if got, ok := second.Metrics[name]; !ok || got != want {
					t.Errorf("metric %s: second run %v, first run %v", name, got, want)
				}
			}
		})
	}
}
