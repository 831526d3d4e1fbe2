package cluster

import (
	"fmt"
	"strings"
	"testing"

	"exist/internal/simtime"
)

// TestSafetyRules pins the slot and key rules on hand-built requests:
// each case wants its counts and the first broken rule Err names.
func TestSafetyRules(t *testing.T) {
	done := TraceRequest{Name: "done", Planned: 2, SessionKeys: []string{"k1", "k2"}}
	cases := []struct {
		name       string
		reqs       []TraceRequest
		dup, unres int
		err        string // substring of Err; empty: every rule holds
	}{
		{name: "clean", reqs: []TraceRequest{done}},
		{name: "duplicated key", reqs: []TraceRequest{done, {Name: "dup", Planned: 1, SessionKeys: []string{"k2"}}},
			dup: 1, err: "request dup: session key k2 landed twice"},
		{name: "short slot", reqs: []TraceRequest{{Name: "short", Planned: 3, SessionKeys: []string{"k3"}, Lost: 1, pending: 1}},
			unres: 1, err: "request short: 1 of 3 planned slots unresolved"},
		{name: "abandoned slot is exempt", reqs: []TraceRequest{{Name: "expired", Planned: 4, pending: 4, abandoned: true}}},
		{name: "over-landed slot", reqs: []TraceRequest{{Name: "over", Planned: 1, SessionKeys: []string{"k4", "k5"}, pending: -1}},
			unres: 1, err: "request over: 2 landed + 0 lost exceed 1 planned"},
	}
	for _, tc := range cases {
		c := &Cluster{API: NewAPIServer()}
		for _, b := range tc.reqs {
			r, err := c.API.Create(b.Name, TraceRequestSpec{})
			if err != nil {
				t.Fatal(err)
			}
			r.Planned, r.SessionKeys, r.Lost, r.pending, r.abandoned = b.Planned, b.SessionKeys, b.Lost, b.pending, b.abandoned
		}
		s := c.Safety()
		err := s.Err()
		if s.DupKeys != tc.dup || s.Unresolved != tc.unres || (err == nil) != (tc.err == "") ||
			(err != nil && !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: Safety() = %+v, Err() = %v; want %d duplicated, %d unresolved, error %q",
				tc.name, s, err, tc.dup, tc.unres, tc.err)
		}
	}
}

// TestTerminalPhaseIsFinal pins setPhase's legality rule: a Completed
// request moved back to Running panics, naming the request and both
// phases, and leaves the shard's live count where completion put it.
func TestTerminalPhaseIsFinal(t *testing.T) {
	a := NewAPIServer()
	r, err := a.Create("done", TraceRequestSpec{})
	if err != nil {
		t.Fatal(err)
	}
	a.setPhase(r, PhaseRunning, "")
	a.setPhase(r, PhaseCompleted, "")
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "request done cannot leave terminal phase Completed for Running") {
			t.Errorf("panic %q does not name the request and both phases", msg)
		}
		if r.Phase != PhaseCompleted || a.LiveInShard(0) != 0 {
			t.Errorf("after the refused move: phase %s, %d live", r.Phase, a.LiveInShard(0))
		}
	}()
	a.setPhase(r, PhaseRunning, "")
}

// TestCancelledSlotsExempt cancels a request with 2 s windows at 300 ms,
// on a 20-node Lite cluster and on a 3-node machine cluster whose partial
// captures upload in batches of four. Cancel gives the open slots up, so
// the slot rule must hold with the Lite slots still pending, and all
// three machine captures must land (a batch drops the sessions of a
// request that ended while it waited, so Cancel ships them first).
func TestCancelledSlotsExempt(t *testing.T) {
	for name, c := range map[string]*Cluster{
		"lite":    liteCluster(t, nil),
		"machine": batchedCluster(t, 3, 4, nil),
	} {
		r, err := c.Request("cancelled", TraceRequestSpec{App: "Agent", Period: 2 * simtime.Second})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(300 * simtime.Millisecond)
		c.Cancel(r)
		c.Run(3 * simtime.Second)
		if r.Phase != PhaseCancelled {
			t.Fatalf("%s: phase %s after Cancel, want Cancelled", name, r.Phase)
		}
		if name == "lite" && r.pending == 0 {
			t.Fatalf("lite: 0 of %d slots pending after Cancel; want some pending", r.Planned)
		}
		// A machine cluster's cancelled sessions close with their partial
		// captures, which land although uploads are batched.
		if name == "machine" && (len(r.SessionKeys) != r.Planned || r.Planned != 3) {
			t.Fatalf("machine: %d of %d sessions landed after Cancel; want 3 of 3", len(r.SessionKeys), r.Planned)
		}
		if err := c.Safety().Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
