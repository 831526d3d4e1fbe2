// Package livenessbench is the hot-path fixture for node liveness at
// fleet scale: a warm 100k-node Lite cluster with the fleet workload's
// fault configuration (gray nodes, node churn, controller crashes) and no
// requests, so an op costs the lease heartbeats, the node-fault schedule
// and the controller replicas' steady election and pump ticks. One op is
// one simulated second. It lives apart from package hotbench because it
// imports the cluster, whose dependencies' own tests import hotbench.
package livenessbench

import (
	"exist/internal/cluster"
	"exist/internal/faults"
	"exist/internal/simtime"
)

// Fixture shape: the fleet workload's cluster (three replicas over eight
// shards, 1% gray nodes, a 240 s churn MTBF, 2 s controller crashes),
// warmed for the fleet's 2 s preroll.
const (
	nodes    = 100_000
	replicas = 3
	shards   = 8
	warm     = 2 * simtime.Second
	op       = simtime.Second
)

// Bench is a warm Lite cluster advanced one simulated second per op.
type Bench struct {
	c *cluster.Cluster
}

// New builds the cluster and runs it through the warm-up.
func New() *Bench {
	cfg := cluster.DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = nodes
	cfg.CoresPerNode = 4
	cfg.Replicas = replicas
	cfg.Shards = shards
	cfg.Faults = faults.New(faults.Config{
		Seed:              cfg.Seed,
		CtrlCrashMTBF:     2 * simtime.Second,
		CtrlCrashDowntime: 500 * simtime.Millisecond,
		ChurnMTBF:         240 * simtime.Second,
		ChurnDownMean:     simtime.Second,
		GrayNodeProb:      0.01,
	})
	b := &Bench{c: cluster.New(cfg)}
	b.c.Run(warm)
	return b
}

// Second is one op: advance the cluster one simulated second.
func (b *Bench) Second() {
	b.c.Run(b.c.Eng.Now() + op)
}
