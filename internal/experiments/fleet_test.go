package experiments

import (
	"reflect"
	"testing"

	"exist/internal/cluster"
)

// TestFleetTally pins the request tally on hand-built requests: duplicate
// session keys and short slots are counted, a deadline-expired request is
// exempt from slot accounting, and covered means terminal with at least
// one session landed.
func TestFleetTally(t *testing.T) {
	done := &cluster.TraceRequest{Name: "done", Phase: cluster.PhaseCompleted,
		Planned: 2, SessionKeys: []string{"k1", "k2"}}
	dup := &cluster.TraceRequest{Name: "dup", Phase: cluster.PhaseDegraded,
		Planned: 2, SessionKeys: []string{"k2"}, Lost: 1}
	short := &cluster.TraceRequest{Name: "short", Phase: cluster.PhaseRunning,
		Planned: 3, SessionKeys: []string{"k3"}, Lost: 1}
	expired := &cluster.TraceRequest{Name: "expired", Phase: cluster.PhaseDegraded,
		Planned: 4, Message: "deadline exceeded after 10s"}
	failed := &cluster.TraceRequest{Name: "failed", Phase: cluster.PhaseFailed}
	reqs := []*cluster.TraceRequest{done, dup, short, expired, failed}

	got := tallyRequests(reqs, map[*cluster.TraceRequest]float64{done: 1.5, short: 4})
	want := tally{
		requests:  5,
		terminal:  4,
		covered:   2, // done and dup; short has a key but is not terminal
		completed: 1,
		degraded:  2,
		failed:    1,
		coverage:  (1 + 0.5 + 1.0/3) / 5,
		dupKeys:   1, // k2
		unacct:    1, // short: 3 planned, 1 landed, 1 lost; expired is exempt
		runningMs: []float64{1.5, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tally = %+v, want %+v", got, want)
	}

	if got := tallyRequests(nil, nil); !reflect.DeepEqual(got, tally{}) {
		t.Errorf("empty tally = %+v, want zero", got)
	}
}
