package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// TestPlacementHonoursSubsetDeploy deploys an app onto a few nodes of a
// Lite fleet whose indices straddle bitset words, and checks that every
// placement path sees exactly those nodes: the replacement candidates,
// the spatial sampler and pinned placement. A second Deploy onto one of
// them still errors, and Lite nodes keep no app map.
func TestPlacementHonoursSubsetDeploy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = 130
	cfg.CoresPerNode = 4
	cfg.Seed = 5
	c := New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		t.Fatal(err)
	}
	hosts := []string{"node-3", "node-63", "node-64", "node-129"}
	if err := c.Deploy(agent, hosts, workload.InstallOpts{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if n.Apps != nil {
			t.Fatalf("Lite node %s has an app map", n.Name)
		}
	}
	if err := c.Deploy(agent, []string{"node-1", "node-64"}, workload.InstallOpts{}); err == nil ||
		!strings.Contains(err.Error(), `already on "node-64"`) {
		t.Fatalf("duplicate deploy: err = %v", err)
	}

	// Deploy places nodes in order and stops at the first error, so the
	// failed Deploy left node-1 placed.
	want := append([]string{"node-1"}, hosts...)
	var got []string
	for _, rep := range c.replacementCandidates(&TraceRequest{Spec: TraceRequestSpec{App: "Agent"}}, 0) {
		got = append(got, rep.Node)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("replacement candidates %v, want %v", got, want)
	}

	sampled, err := c.Request("sampled", TraceRequestSpec{App: "Agent", Purpose: coverage.PurposeProfiling, Period: 50 * simtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := c.Request("pinned", TraceRequestSpec{App: "Agent", Period: 50 * simtime.Millisecond,
		Nodes: []string{"node-2", "node-63", "node-65", "node-129"}})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * simtime.Second)
	for _, tc := range []struct {
		r     *TraceRequest
		nodes []string
	}{{sampled, want}, {pinned, []string{"node-63", "node-129"}}} {
		if tc.r.Phase != PhaseCompleted || len(tc.r.SessionKeys) == 0 {
			t.Fatalf("%s ended %s with %d sessions", tc.r.Name, tc.r.Phase, len(tc.r.SessionKeys))
		}
		for _, key := range tc.r.SessionKeys {
			node := key[strings.LastIndexByte(key, '/')+1:]
			if !slices.Contains(tc.nodes, node) {
				t.Fatalf("%s traced %s, outside %v", tc.r.Name, node, tc.nodes)
			}
		}
	}
	if len(pinned.SessionKeys) != 2 {
		t.Fatalf("pinned request landed %v, want node-63 and node-129", pinned.SessionKeys)
	}
}

// TestObjectStoreBytesIsBlobSum pins Bytes, summed on read, against the
// lengths of the stored blobs read back through Get, after a put, an
// overwrite, a delete and a failed put, on a store whose puts can
// fail.
func TestObjectStoreBytesIsBlobSum(t *testing.T) {
	o := NewObjectStore()
	o.UseFaults(faults.New(faults.Config{Seed: 2, PutFailProb: 0.5}))
	sum := func() int64 {
		var n int64
		for _, k := range o.List("") {
			b, _ := o.Get(k)
			n += int64(len(b))
		}
		return n
	}
	check := func(step string, want int64) {
		t.Helper()
		if got, blobs := o.Bytes(), sum(); got != want || blobs != want {
			t.Fatalf("after %s: Bytes() = %d, blob sum %d, want %d", step, got, blobs, want)
		}
	}
	put := func(key string, size int) error {
		return o.PutBatch(key, []string{key}, [][]byte{make([]byte, size)})
	}
	land := func(key string, size int) {
		for put(key, size) != nil {
		}
	}
	check("nothing", 0)
	for i := 0; i < 20; i++ {
		land(fmt.Sprintf("sessions/r/node-%d", i), i+1)
	}
	check("puts", 210)
	land("sessions/r/node-4", 100)
	check("an overwrite", 210-5+100)
	if !o.Delete("sessions/r/node-0") || o.Delete("sessions/r/node-0") {
		t.Fatal("Delete should report the blob once")
	}
	check("a delete", 305-1)
	failed := false
	for i := 0; i < 64 && !failed; i++ {
		key := fmt.Sprintf("sessions/f/node-%d", i)
		if failed = put(key, 1000) != nil; !failed {
			o.Delete(key)
		}
	}
	if !failed {
		t.Fatal("no put failed in 64 tries at probability 0.5")
	}
	check("a failed put", 304)
}
