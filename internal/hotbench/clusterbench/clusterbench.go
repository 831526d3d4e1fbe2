// Package clusterbench is the hot-path fixture for the machine-node
// scheduling path: a 6-node walker cluster whose per-node engines advance
// between control-plane barriers on a given number of workers. Each op
// runs one mixed request schedule (overlapping profiling and anomaly
// windows plus a mid-window cancel) to completion, the shape of the
// cluster package's node-parallel determinism scenario. It lives apart
// from package hotbench because it imports the cluster, whose
// dependencies' own tests import hotbench.
package clusterbench

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// Fixture shape: six 4-core nodes running the walker-backed Agent
// profile, six requests filed 300 ms apart, request 2 cancelled 200 ms
// into its window, and the cluster run to a 6 s horizon.
const (
	nodes    = 6
	cores    = 4
	requests = 6
	spacing  = 300 * simtime.Millisecond
	period   = 400 * simtime.Millisecond
	cancelAt = 800 * simtime.Millisecond
	horizon  = 6 * simtime.Second
)

// Scenario is one prepared run: cluster built, app deployed and request
// schedule armed, with no simulated time elapsed.
type Scenario struct {
	c    *cluster.Cluster
	reqs []*cluster.TraceRequest
}

// New prepares a scenario whose node machines advance on jobs workers.
func New(jobs int) *Scenario {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.Seed = 11
	cfg.Jobs = jobs
	c := cluster.New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		panic(err)
	}
	if err := c.Deploy(agent, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 1}); err != nil {
		panic(err)
	}
	s := &Scenario{c: c, reqs: make([]*cluster.TraceRequest, requests)}
	for i := range s.reqs {
		purpose := coverage.PurposeProfiling
		name := fmt.Sprintf("prof-%d", i)
		if i%2 == 1 {
			purpose = coverage.PurposeAnomaly
			name = fmt.Sprintf("diag-%d", i)
		}
		c.Eng.Schedule(simtime.Time(i)*simtime.Time(spacing), func(simtime.Time) {
			r, err := c.Request(name, cluster.TraceRequestSpec{App: "Agent", Purpose: purpose, Period: period})
			if err != nil {
				panic(err)
			}
			s.reqs[i] = r
		})
	}
	c.Eng.Schedule(simtime.Time(cancelAt), func(simtime.Time) {
		if r := s.reqs[2]; r != nil && !r.Phase.Terminal() {
			c.Cancel(r)
		}
	})
	return s
}

// Run is one op: advance the cluster to the horizon, then check that
// every request ended, the cancel landed and sessions were uploaded.
func (s *Scenario) Run() {
	s.c.Run(horizon)
	for i, r := range s.reqs {
		if r == nil || !r.Phase.Terminal() {
			panic(fmt.Sprintf("clusterbench: request %d did not finish", i))
		}
	}
	if s.reqs[2].Phase != cluster.PhaseCancelled || s.c.OSS.Puts() == 0 {
		panic(fmt.Sprintf("clusterbench: request 2 ended %s with %d puts", s.reqs[2].Phase, s.c.OSS.Puts()))
	}
}
