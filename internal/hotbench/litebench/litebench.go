// Package litebench is the hot-path fixture for one Lite session: a warm
// bookkeeping-only cluster on which each op files a one-node request and
// runs it to completion, so the op opens, finishes and uploads exactly one
// virtual session through the batch upload path. It lives apart from
// package hotbench because it imports the cluster, whose dependencies'
// own tests import hotbench.
package litebench

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// Fixture shape: the fleet workload's control plane (three replicas over
// eight shards) on a small fleet with no fault injection, so an op costs
// the session path plus the replicas' steady election and pump ticks.
const (
	nodes    = 16
	replicas = 3
	shards   = 8
	period   = 20 * simtime.Millisecond
	warmOps  = 64
	reqName  = "lite-hot"
)

// Bench is a warm Lite cluster driven one session per op.
type Bench struct {
	c    *cluster.Cluster
	spec cluster.TraceRequestSpec
}

// New builds the cluster, deploys the Agent profile everywhere and runs
// warmOps sessions so queues, watch buffers and stores reach their steady
// sizes.
func New() *Bench {
	cfg := cluster.DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = nodes
	cfg.CoresPerNode = 4
	cfg.Replicas = replicas
	cfg.Shards = shards
	c := cluster.New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		panic(err)
	}
	if err := c.Deploy(agent, nil, workload.InstallOpts{}); err != nil {
		panic(err)
	}
	b := &Bench{c: c, spec: cluster.TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Nodes: []string{"node-1"}, Period: period,
	}}
	for i := 0; i < warmOps; i++ {
		b.Session()
	}
	return b
}

// Session is one op: file the pinned request, step the engine until it
// is terminal (its one session opened, closed and landed in the object
// store), then delete it, blob included, so every op starts from the
// same store contents.
func (b *Bench) Session() {
	r, err := b.c.Request(reqName, b.spec)
	if err != nil {
		panic(err)
	}
	for !r.Phase.Terminal() {
		b.c.Eng.Step()
	}
	if r.Phase != cluster.PhaseCompleted || len(r.SessionKeys) != 1 {
		panic(fmt.Sprintf("litebench: request ended %s with %d sessions", r.Phase, len(r.SessionKeys)))
	}
	if err := b.c.Delete(reqName); err != nil {
		panic(err)
	}
}
