package cluster

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"exist/internal/coverage"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// scenarioSnapshot captures everything externally observable about a
// cluster run: request outcomes, uploaded sessions, store accounting, the
// decoded aggregate, and the control-plane counters. Two runs of the same
// scenario must produce deeply equal snapshots no matter how the node
// engines were scheduled.
type scenarioSnapshot struct {
	phases    []Phase
	sessions  [][]string
	puts      int64
	bytes     int64
	agg       map[string]float64
	resamples int64
	retries   int64
}

// runScenario drives a mixed request schedule — overlapping profiling and
// anomaly windows plus a mid-window cancel — against a 6-node cluster with
// the given Jobs setting. The cancel exercises the control→node edge while
// per-node engines are parked at the barrier; the overlapping windows
// exercise buffered window-close replay.
func runScenario(t *testing.T, jobs int) scenarioSnapshot {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 6
	cfg.CoresPerNode = 4
	cfg.Seed = 11
	cfg.Jobs = jobs
	c := New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		t.Fatal(err)
	}
	// Seed 424242 is unique to this file so progCache hands every run a
	// Program whose lazy indexes were not pre-built by another test.
	if err := c.Deploy(agent, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 424242}); err != nil {
		t.Fatal(err)
	}
	reqs := make([]*TraceRequest, 6)
	for i := 0; i < 6; i++ {
		i := i
		purpose := coverage.PurposeProfiling
		name := fmt.Sprintf("prof-%d", i)
		if i%2 == 1 {
			purpose = coverage.PurposeAnomaly
			name = fmt.Sprintf("diag-%d", i)
		}
		at := simtime.Time(i) * simtime.Time(300*simtime.Millisecond)
		c.Eng.Schedule(at, func(simtime.Time) {
			r, err := c.Request(name, TraceRequestSpec{
				App:     "Agent",
				Purpose: purpose,
				Period:  400 * simtime.Millisecond,
			})
			if err == nil {
				reqs[i] = r
			}
		})
	}
	// Cancel request 2 mid-window: opened at 600ms, killed at 800ms.
	c.Eng.Schedule(simtime.Time(800*simtime.Millisecond), func(simtime.Time) {
		if reqs[2] != nil && !reqs[2].Phase.Terminal() {
			c.Cancel(reqs[2])
		}
	})
	c.Run(6 * simtime.Second)

	snap := scenarioSnapshot{
		puts:      c.Uploads.Batches,
		bytes:     c.OSS.Bytes(),
		agg:       c.ODPS.AggregateApp("Agent"),
		resamples: c.Mgmt.Resamples,
		retries:   c.Mgmt.Retries,
	}
	for _, r := range reqs {
		if r == nil {
			t.Fatal("request never created")
		}
		snap.phases = append(snap.phases, r.Phase)
		snap.sessions = append(snap.sessions, append([]string(nil), r.SessionKeys...))
	}
	return snap
}

// scenarioDigest is the SHA-256 of fmt.Sprintf("%+v", runScenario(t, 1))
// as recorded from the shared-engine scheduler that advanced every node
// on the control engine, before per-node engines became the only path.
// It keeps that scheduler's output as the reference the barrier path
// must reproduce.
const scenarioDigest = "2d3db01c22208affc6970b2cfb788ae1e5d6f2296f05957f49d9932f94b619a4"

// TestParallelNodesMatchSerial is the node-parallel determinism contract:
// the scenario run on per-node engines with one worker or four must be
// observationally identical to the recorded shared-engine reference, at
// any GOMAXPROCS. DESIGN.md §14 describes the barrier scheme this relies
// on.
func TestParallelNodesMatchSerial(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			for _, jobs := range []int{1, 4} {
				t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
					snap := runScenario(t, jobs)
					if snap.phases[2] != PhaseCancelled {
						t.Fatalf("request 2 phase = %s, want Cancelled", snap.phases[2])
					}
					if len(snap.agg) == 0 || snap.puts == 0 {
						t.Fatal("scenario produced no data; comparison would be vacuous")
					}
					if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", snap)))); got != scenarioDigest {
						t.Errorf("snapshot digest %s, want %s:\n%+v", got, scenarioDigest, snap)
					}
				})
			}
		})
	}
}

// TestParallelNodesRepeatable runs the parallel scenario twice and requires
// deep equality — the per-node engines must not leak scheduling order into
// results even against themselves.
func TestParallelNodesRepeatable(t *testing.T) {
	first := runScenario(t, 4)
	second := runScenario(t, 4)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated jobs=4 runs diverged:\nfirst: %+v\nsecond: %+v", first, second)
	}
}

// TestSharedProgramLazyIndexes has all six node engines concurrently walk
// one shared *binary.Program (progCache memoizes on the spec+seed key, so
// every node holds the same instance). The first windows race to build the
// lazy address/entry indexes and the superop table; under -race this fails
// unless those builds are properly synchronized (sync.Once in binary.go).
func TestSharedProgramLazyIndexes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 6
	cfg.CoresPerNode = 2
	cfg.Seed = 12
	cfg.Jobs = 6
	c := New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh seed again: the indexes must be unbuilt when the six engines
	// hit them, or the race window this test exists for never opens.
	if err := c.Deploy(agent, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 525252}); err != nil {
		t.Fatal(err)
	}
	req, err := c.Request("r", TraceRequestSpec{
		App:     "Agent",
		Purpose: coverage.PurposeAnomaly,
		Period:  200 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * simtime.Second)
	if req.Phase != PhaseCompleted {
		t.Fatalf("phase = %s (%s)", req.Phase, req.Message)
	}
	if len(req.SessionKeys) != 6 {
		t.Fatalf("sessions = %v, want one per node", req.SessionKeys)
	}
}
