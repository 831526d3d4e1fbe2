package cluster

import (
	"reflect"
	"strings"
	"testing"

	"exist/internal/core"
	"exist/internal/coverage"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
)

func TestObjectStore(t *testing.T) {
	o := NewObjectStore()
	put := func(key string, blob []byte) {
		if err := o.PutBatch(key, []string{key}, [][]byte{blob}); err != nil {
			t.Fatal(err)
		}
	}
	put("sessions/a", []byte{1, 2, 3})
	put("sessions/b", []byte{4})
	put("other/c", []byte{5})
	if o.Bytes() != 5 || o.Puts() != 3 {
		t.Fatalf("accounting: %d bytes, %d puts", o.Bytes(), o.Puts())
	}
	put("sessions/a", []byte{9, 9}) // replace
	if o.Bytes() != 4 {
		t.Fatalf("replace accounting: %d bytes", o.Bytes())
	}
	if got := o.List("sessions/"); len(got) != 2 || got[0] != "sessions/a" {
		t.Fatalf("List = %v", got)
	}
	if b, ok := o.Get("sessions/a"); !ok || len(b) != 2 {
		t.Fatalf("Get = %v %v", b, ok)
	}
	if _, ok := o.Get("missing"); ok {
		t.Fatal("Get(missing) should fail")
	}
}

func TestDataStore(t *testing.T) {
	d := NewDataStore()
	d.Insert("batch-1",
		Row{App: "a", Session: "s2", Key: "f1", Value: 2},
		Row{App: "a", Session: "s1", Key: "f2", Value: 3},
		Row{App: "b", Session: "s1", Key: "f1", Value: 7},
		Row{App: "a", Session: "s1", Key: "f1", Value: 5},
	)
	rows := d.QueryApp("a")
	if len(rows) != 3 || rows[0].Session != "s1" || rows[0].Key != "f1" {
		t.Fatalf("QueryApp order wrong: %+v", rows)
	}
	agg := d.AggregateApp("a")
	if agg["f1"] != 7 || agg["f2"] != 3 {
		t.Fatalf("aggregate = %v", agg)
	}
	if !strings.Contains(d.String(), "4 rows") {
		t.Fatalf("String = %q", d.String())
	}
}

func TestAPIServer(t *testing.T) {
	a := NewAPIServer()
	if _, err := a.Create("r1", TraceRequestSpec{App: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Create("r1", TraceRequestSpec{}); err == nil {
		t.Fatal("duplicate create should fail")
	}
	r, ok := a.Get("r1")
	if !ok || r.Phase != PhasePending {
		t.Fatalf("Get = %+v %v", r, ok)
	}
	if len(a.List()) != 1 {
		t.Fatal("List wrong")
	}
}

// testCluster deploys a walker-backed app on a small cluster.
func testCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = 4
	cfg.Seed = 3
	c := New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(agent, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEndToEndTraceRequest(t *testing.T) {
	c := testCluster(t, 3)
	req, err := c.Request("diag-1", TraceRequestSpec{
		App:     "Agent",
		Purpose: coverage.PurposeAnomaly,
		Period:  200 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * simtime.Second)
	if req.Phase != PhaseCompleted {
		t.Fatalf("request phase = %s (%s)", req.Phase, req.Message)
	}
	// An unset Jobs means one node worker, not GOMAXPROCS of them.
	if jobs := New(DefaultConfig()).Cfg.Jobs; jobs != 1 {
		t.Fatalf("default Jobs = %d, want 1", jobs)
	}
	// Anomaly purpose with nothing flagged traces all three nodes.
	if len(req.SessionKeys) != 3 {
		t.Fatalf("sessions = %v", req.SessionKeys)
	}
	if c.OSS.Puts() != 3 || c.OSS.Bytes() == 0 {
		t.Fatalf("OSS: %d puts, %d bytes", c.OSS.Puts(), c.OSS.Bytes())
	}
	// Sessions must round-trip from the object store.
	for _, key := range req.SessionKeys {
		blob, ok := c.OSS.Get(key)
		if !ok {
			t.Fatalf("session %s missing from OSS", key)
		}
		sess, err := trace.UnmarshalSession(blob)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Workload != "Agent" || sess.Duration() != 200*simtime.Millisecond {
			t.Fatalf("bad session: %+v", sess)
		}
	}
	if c.ODPS.Len() == 0 {
		t.Fatal("decoded rows never reached the structured store")
	}
	agg := c.ODPS.AggregateApp("Agent")
	if len(agg) == 0 {
		t.Fatal("aggregate empty")
	}
}

func TestTemporalDeciderUsedWhenPeriodOmitted(t *testing.T) {
	c := testCluster(t, 1)
	req, err := c.Request("auto", TraceRequestSpec{App: "Agent", Purpose: coverage.PurposeAnomaly})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(4 * simtime.Second)
	if req.Phase != PhaseCompleted {
		t.Fatalf("phase = %s (%s)", req.Phase, req.Message)
	}
	blob, _ := c.OSS.Get(req.SessionKeys[0])
	sess, err := trace.UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	d := sess.Duration()
	if d < coverage.MinPeriod || d > coverage.MaxPeriod {
		t.Fatalf("decided period %v outside bounds", d)
	}
}

func TestRequestUnknownApp(t *testing.T) {
	c := testCluster(t, 1)
	if _, err := c.Request("bad", TraceRequestSpec{App: "nope"}); err == nil {
		t.Fatal("unknown app should be rejected")
	}
}

func TestSelectedNodesRespected(t *testing.T) {
	c := testCluster(t, 3)
	req, err := c.Request("pin", TraceRequestSpec{
		App: "Agent", Period: 150 * simtime.Millisecond,
		Nodes: []string{"node-1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(1 * simtime.Second)
	if req.Phase != PhaseCompleted || len(req.SessionKeys) != 1 {
		t.Fatalf("pin request: %+v", req)
	}
	if !strings.Contains(req.SessionKeys[0], "node-1") {
		t.Fatalf("wrong node traced: %v", req.SessionKeys)
	}
}

func TestManagementOverheadSmall(t *testing.T) {
	c := testCluster(t, 10)
	if _, err := c.Request("r", TraceRequestSpec{App: "Agent", Period: 500 * simtime.Millisecond}); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * simtime.Second)
	cores := c.ManagementCores()
	// The paper: RCO consumes < 3e-3 cores for a ten-node cluster.
	if cores <= 0 || cores > 3e-3 {
		t.Fatalf("management cores = %v, want (0, 3e-3]", cores)
	}
	if c.Mgmt.MemMB != 40 {
		t.Fatalf("management memory = %v", c.Mgmt.MemMB)
	}
	if c.Mgmt.Reconciles < 10 {
		t.Fatalf("reconciles = %d", c.Mgmt.Reconciles)
	}
}

func TestDeployValidation(t *testing.T) {
	c := testCluster(t, 2)
	agent, _ := workload.ByName("Agent")
	if err := c.Deploy(agent, []string{"node-0"}, workload.InstallOpts{Seed: 1}); err == nil {
		t.Fatal("duplicate deploy should fail")
	}
	mc, _ := workload.ByName("mc")
	// Node names are parsed, not hashed: only the canonical node-<i> of
	// an existing index resolves.
	for _, name := range []string{"ghost", "node-2", "node-01", "node-+1", "node-", "node--1", "Node-1"} {
		if err := c.Deploy(mc, []string{name}, workload.InstallOpts{Seed: 1}); err == nil {
			t.Fatalf("unknown node %q should fail", name)
		}
	}
	if n, ok := c.Node("node-1"); !ok || n != c.Nodes[1] {
		t.Fatal("node-1 did not resolve to Nodes[1]")
	}
}

func TestWatchNotifications(t *testing.T) {
	c := testCluster(t, 2)
	var phases []Phase
	c.API.Watch(func(r *TraceRequest) { phases = append(phases, r.Phase) })
	if _, err := c.Request("w", TraceRequestSpec{App: "Agent", Period: 200 * simtime.Millisecond}); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * simtime.Second)
	if len(phases) < 2 || phases[0] != PhaseRunning || phases[len(phases)-1] != PhaseCompleted {
		t.Fatalf("watch phases = %v", phases)
	}
}

func TestCancelRequest(t *testing.T) {
	c := testCluster(t, 2)
	req, err := c.Request("c", TraceRequestSpec{App: "Agent", Period: 1500 * simtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Let it start, then cancel mid-window.
	c.Run(400 * simtime.Millisecond)
	if req.Phase != PhaseRunning {
		t.Fatalf("phase = %s before cancel", req.Phase)
	}
	c.Cancel(req)
	if req.Phase != PhaseCancelled {
		t.Fatalf("phase = %s after cancel, want Cancelled", req.Phase)
	}
	// Partial sessions were still uploaded.
	if len(req.SessionKeys) == 0 {
		t.Fatal("cancelled request uploaded nothing")
	}
	for _, key := range req.SessionKeys {
		blob, ok := c.OSS.Get(key)
		if !ok {
			t.Fatalf("session %s missing", key)
		}
		sess, err := trace.UnmarshalSession(blob)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Duration() >= 1500*simtime.Millisecond {
			t.Fatalf("cancelled session has full window %v", sess.Duration())
		}
	}
	// No tracer may remain enabled anywhere.
	for _, n := range c.Nodes {
		for _, core := range n.Machine.Cores {
			if core.Tracer.Enabled() {
				t.Fatalf("node %s core %d tracer still enabled", n.Name, core.ID)
			}
		}
	}
	c.Run(3 * simtime.Second) // the orphaned HRTs must not fire into closed sessions
}

// TestTerminalRequestsHoldNoSessions checks that once every request is
// terminal, completed or cancelled, no machine tracing session (and so
// no raw per-core capture) stays reachable from the cluster.
func TestTerminalRequestsHoldNoSessions(t *testing.T) {
	c := testCluster(t, 3)
	done, err := c.Request("done", TraceRequestSpec{App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := c.Request("cancelled", TraceRequestSpec{App: "Agent", Period: 1500 * simtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(400 * simtime.Millisecond)
	c.Cancel(cancelled)
	c.Run(3 * simtime.Second)
	if done.Phase != PhaseCompleted || cancelled.Phase != PhaseCancelled {
		t.Fatalf("phases %s and %s, want Completed and Cancelled", done.Phase, cancelled.Phase)
	}
	if n := sessionsReachable(c); n != 0 {
		t.Fatalf("%d machine sessions still reachable after every request ended", n)
	}
}

// sessionsReachable counts the non-nil *core.Session values reachable
// from root through pointers, structs, slices, arrays, maps and
// interfaces. Closures are opaque to reflection and are not followed.
func sessionsReachable(root any) int {
	target := reflect.TypeOf((*core.Session)(nil))
	holds := map[reflect.Type]bool{}
	// mayHold reports whether a value of type t can lead to a target,
	// by a search of the type graph, so pointer-free data is skipped.
	mayHold := func(t reflect.Type) bool {
		if h, ok := holds[t]; ok {
			return h
		}
		seen := map[reflect.Type]bool{}
		var search func(t reflect.Type) bool
		search = func(t reflect.Type) bool {
			if t == target || t.Kind() == reflect.Interface {
				return true
			}
			if seen[t] {
				return false
			}
			seen[t] = true
			switch t.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array:
				return search(t.Elem())
			case reflect.Map:
				return search(t.Key()) || search(t.Elem())
			case reflect.Struct:
				for i := 0; i < t.NumField(); i++ {
					if search(t.Field(i).Type) {
						return true
					}
				}
			}
			return false
		}
		holds[t] = search(t)
		return holds[t]
	}
	visited := map[uintptr]map[reflect.Type]bool{}
	first := func(v reflect.Value) bool {
		p := v.Pointer()
		if visited[p] == nil {
			visited[p] = map[reflect.Type]bool{}
		}
		if visited[p][v.Type()] {
			return false
		}
		visited[p][v.Type()] = true
		return true
	}
	n := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if !mayHold(v.Type()) {
			return
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || !first(v) {
				return
			}
			if v.Type() == target {
				n++
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			if v.IsNil() || !first(v) {
				return
			}
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(root))
	return n
}
