package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// testSize shrinks every workload to a few seconds in total.
var testSize = size{
	overheadWindows: 6,
	decodeRounds:    1, decodeWorkers: 2,
	fleetNodes: 2000, fleetSeconds: 2, fleetRate: 200,
	e2eRequests: 6,
}

// runEpisode runs one whole episode of w (without the first episode's
// warm-up) and returns its report and checks.
func runEpisode(t *testing.T, w benchWorkload, seed uint64) (map[string]float64, *checks) {
	t.Helper()
	e := &env{rec: newRecorder(), chk: &checks{}}
	ep, err := w.start(e, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ep.ops(); i++ {
		ep.op(i)
	}
	ep.finish()
	m := map[string]float64{}
	ep.report(m)
	return m, e.chk
}

// Counts and model values are simulated, so they must repeat exactly at a
// fixed seed, at any GOMAXPROCS.
func TestWorkloadsDeterministic(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	owned := map[string]string{
		"node-overhead": "model.overhead_pct",
		"trace-decode":  "model.accuracy",
		"fleet":         "model.running_n",
		"cluster-e2e":   "model.coverage",
	}
	for _, w := range workloads(testSize) {
		t.Run(w.name, func(t *testing.T) {
			a, chk := runEpisode(t, w, 3)
			if chk.failed > 0 || chk.attempted == 0 {
				t.Fatalf("checks: attempted %d, failed %v", chk.attempted, chk.names())
			}
			b, _ := runEpisode(t, w, 3)
			prev := runtime.GOMAXPROCS(1)
			c, _ := runEpisode(t, w, 3)
			runtime.GOMAXPROCS(prev)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs differ:\n%v\n%v", a, b)
			}
			if !reflect.DeepEqual(a, c) {
				t.Errorf("GOMAXPROCS 1 differs:\n%v\n%v", a, c)
			}
			for k, v := range a {
				if !known[k] {
					t.Errorf("reports %s, which is not a per-layer metric", k)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", k, v)
				}
			}
			if a[owned[w.name]] <= 0 {
				t.Errorf("%s = %v", owned[w.name], a[owned[w.name]])
			}
		})
	}
}

// A workload that bypasses a layer reports zero work in it.
func TestWorkloadsBypassLayers(t *testing.T) {
	all := workloads(testSize)
	overhead, _ := runEpisode(t, all[0], 1)
	for _, k := range []string{"decode.events", "trace.wire_mb", "cluster.syncs"} {
		if overhead[k] != 0 {
			t.Errorf("node-overhead reports %s = %v", k, overhead[k])
		}
	}
	fleet, _ := runEpisode(t, all[2], 1)
	for _, k := range []string{"sched.ginsns", "ipt.trace_mb", "decode.events"} {
		if fleet[k] != 0 {
			t.Errorf("fleet reports %s = %v", k, fleet[k])
		}
	}
}

func TestTracedRun(t *testing.T) {
	w := workloads(testSize)[2] // fleet
	res, err := run(w, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.chk.failed > 0 {
		t.Fatalf("failed checks %v", res.chk.names())
	}
	for _, m := range endToEnd {
		if v, ok := res.e2e[m.name]; !ok || v <= 0 {
			t.Errorf("%s = %v", m.name, v)
		}
	}
	if _, ok := res.layer["bench.trace_overhead_pct"]; !ok {
		t.Error("no trace overhead")
	}
	if len(res.spans) == 0 || len(res.profile) == 0 {
		t.Fatalf("%d spans, %d profile bytes", len(res.spans), len(res.profile))
	}
	var share float64
	for _, l := range profileLayers {
		share += res.layer["pkg."+l+".cpu_share"]
	}
	if share != 0 && math.Abs(share-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v", share)
	}
	if res.layer["cluster.new_s"] <= 0 {
		t.Errorf("cluster.new_s = %v", res.layer["cluster.new_s"])
	}
}

// BENCHMARK.json names exactly what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("top-level keys %v, want %v", keys, want)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads(fullSize) {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	got, want = nil, nil
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q, bound %v", m.Name, m.Better, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, want %v", got, want)
	}
	got, want = nil, nil
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n got %v\nwant %v", got, want)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet", "--trace", "2"},
		{"--workload", "fleet", "--seconds", "0"},
		{"-compare", "only-one.jsonl"},
	} {
		var out bytes.Buffer
		if code := realMain(args, &out); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
