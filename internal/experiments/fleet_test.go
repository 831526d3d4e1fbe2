package experiments

import (
	"reflect"
	"testing"

	"exist/internal/cluster"
)

// TestFleetTally pins the request tally on hand-built requests: covered
// means terminal with at least one session landed, and only requests
// that reached Running carry a latency. The slot and key rules are
// cluster.Safety's (TestSafetyRules).
func TestFleetTally(t *testing.T) {
	done := &cluster.TraceRequest{Name: "done", Phase: cluster.PhaseCompleted,
		Planned: 2, SessionKeys: []string{"k1", "k2"}}
	partial := &cluster.TraceRequest{Name: "partial", Phase: cluster.PhaseDegraded,
		Planned: 2, SessionKeys: []string{"k3"}, Lost: 1}
	running := &cluster.TraceRequest{Name: "running", Phase: cluster.PhaseRunning,
		Planned: 4, SessionKeys: []string{"k4"}}
	failed := &cluster.TraceRequest{Name: "failed", Phase: cluster.PhaseFailed}
	reqs := []*cluster.TraceRequest{done, partial, running, failed}

	got := tallyRequests(reqs, map[*cluster.TraceRequest]float64{done: 1.5, running: 4})
	want := tally{
		requests:  4,
		terminal:  3,
		covered:   2, // done and partial; running has a key but is not terminal
		completed: 1,
		degraded:  1,
		failed:    1,
		coverage:  (1 + 0.5 + 0.25) / 4,
		runningMs: []float64{1.5, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tally = %+v, want %+v", got, want)
	}

	if got := tallyRequests(nil, nil); !reflect.DeepEqual(got, tally{}) {
		t.Errorf("empty tally = %+v, want zero", got)
	}
}
