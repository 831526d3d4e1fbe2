package main

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/workload"
	"exist/internal/xrand"
)

const (
	// fleetPreroll lets shard ownership converge before requests arrive.
	fleetPreroll = 2 * simtime.Second
	// fleetStripe is the nodes each anomaly request traces.
	fleetStripe = 8
	// sampleEvery is the period of the control-plane samplers.
	sampleEvery = 20 * simtime.Millisecond
	// drainMax bounds the post-filing drain: past every request deadline.
	drainMax = 60 * simtime.Second
)

// fleetWorkload is the control plane at fleet scale: lite (bookkeeping
// only) nodes under three controller replicas on eight shards, with
// controller crashes, node churn and gray nodes, fed open-loop Poisson
// arrivals of 8-node anomaly requests. It exercises the cluster store,
// queues, watches, elections and faults plus simtime, with no machines,
// walker, tracer or decode. One op is one simulated second of filing.
func fleetWorkload(sz size) benchWorkload {
	return benchWorkload{
		name: "fleet", workMetric: "bench.ctrl_req_per_s",
		start: func(e *env, seed uint64, _ bool) (episode, error) {
			return newFleetEpisode(e, sz, seed)
		},
	}
}

type fleetEpisode struct {
	env   *env
	sz    size
	c     *cluster.Cluster
	nodes []string
	rng   *xrand.Rand
	// next is the due time of the next arrival.
	next simtime.Time
	// reqs are the filed requests; due and running their due and first
	// Running times.
	reqs    []*cluster.TraceRequest
	due     map[string]simtime.Time
	running map[string]simtime.Time
	stop    bool
	m       map[string]float64
}

func newFleetEpisode(e *env, sz size, seed uint64) (*fleetEpisode, error) {
	cfg := cluster.DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = sz.fleetNodes
	cfg.CoresPerNode = 4
	cfg.Seed = seed
	cfg.Replicas = 3
	cfg.Shards = 8
	cfg.RequestDeadline = 30 * simtime.Second
	cfg.Faults = faults.New(faults.Config{
		Seed:              seed,
		CtrlCrashMTBF:     2 * simtime.Second,
		CtrlCrashDowntime: 500 * simtime.Millisecond,
		ChurnMTBF:         240 * simtime.Second,
		ChurnDownMean:     simtime.Second,
		GrayNodeProb:      0.01,
	})
	f := &fleetEpisode{env: e, sz: sz, rng: xrand.Split(seed, "arrivals"),
		due: map[string]simtime.Time{}, running: map[string]simtime.Time{}, m: map[string]float64{}}
	s := e.rec.begin("cluster.New", -1)
	f.c = cluster.New(cfg)
	e.rec.end(s)
	agent, err := workload.ByName("Agent")
	if err != nil {
		return nil, err
	}
	s = e.rec.begin("cluster.Deploy", -1)
	err = f.c.Deploy(agent, nil, workload.InstallOpts{})
	e.rec.end(s)
	if err != nil {
		return nil, err
	}
	for _, n := range f.c.Nodes {
		f.nodes = append(f.nodes, n.Name)
	}
	f.c.API.Watch(f.observe)
	f.c.Eng.Schedule(simtime.Time(sampleEvery), f.sample)
	f.next = simtime.Time(fleetPreroll) + f.gap()
	f.run(simtime.Time(fleetPreroll), -1)
	return f, nil
}

// gap draws the next Poisson inter-arrival time.
func (f *fleetEpisode) gap() simtime.Time {
	return simtime.Time(f.rng.Exp(float64(simtime.Second) / f.sz.fleetRate))
}

// observe records each request's first Running time. It only reads the
// run.
func (f *fleetEpisode) observe(r *cluster.TraceRequest) {
	if r.Phase == cluster.PhaseRunning {
		if _, ok := f.running[r.Name]; !ok {
			f.running[r.Name] = f.c.Eng.Now()
		}
	}
}

// sample checks shard-ownership safety and records queue and event-queue
// depth every sampleEvery until the episode drains.
func (f *fleetEpisode) sample(now simtime.Time) {
	c := f.c
	for s := 0; s < c.API.Shards(); s++ {
		if n := c.ActiveOwnersShard(s, now); n > 1 {
			f.env.chk.fail("cluster.shard_owners", "%d lease-valid owners of shard %d at %v", n, s, now)
		}
	}
	depth := 0
	for _, ct := range c.Controllers {
		depth += ct.QueueDepth()
	}
	f.m["cluster.queue_depth_max"] = max(f.m["cluster.queue_depth_max"], float64(depth))
	f.m["simtime.pending_max"] = max(f.m["simtime.pending_max"], float64(c.Eng.Len()))
	if !f.stop {
		c.Eng.AfterDetached(sampleEvery, f.sample)
	}
}

// run advances the cluster to until inside a cluster.Run span.
func (f *fleetEpisode) run(until simtime.Time, req int) {
	s := f.env.rec.begin("cluster.Run", req)
	f.c.Run(until)
	f.env.rec.end(s)
}

func (f *fleetEpisode) ops() int { return f.sz.fleetSeconds }

// op files the arrivals due in the next simulated second, each at its
// due time, and runs the cluster through that second.
func (f *fleetEpisode) op(i int) float64 {
	end := simtime.Time(fleetPreroll) + simtime.Time(i+1)*simtime.Time(simtime.Second)
	for ; f.next < end; f.next += f.gap() {
		f.schedule(len(f.due), f.next)
	}
	before := f.terminalCount()
	f.run(end, i)
	return float64(f.terminalCount() - before)
}

// schedule arms the filing of request k at its due time.
func (f *fleetEpisode) schedule(k int, due simtime.Time) {
	name := fmt.Sprintf("fleet-%06d", k)
	f.due[name] = due
	nodes := make([]string, fleetStripe)
	for j := range nodes {
		nodes[j] = f.nodes[(k*fleetStripe+j)%len(f.nodes)]
	}
	f.c.Eng.Schedule(due, func(now simtime.Time) {
		if now != due {
			f.env.chk.fail("fleet.filed_at_due", "%s filed at %v, due %v", name, now, due)
		}
		s := f.env.rec.begin("cluster.Request", k)
		r, err := f.c.Request(name, cluster.TraceRequestSpec{
			App: "Agent", Purpose: coverage.PurposeAnomaly, Nodes: nodes, Period: 400 * simtime.Millisecond,
		})
		f.env.rec.end(s)
		if err != nil {
			f.env.chk.fail("cluster.request", "%s: %v", name, err)
			return
		}
		f.reqs = append(f.reqs, r)
	})
}

// finish drains the episode: it runs until every filed request is
// terminal (bounded by drainMax) and checks the end state.
func (f *fleetEpisode) finish() {
	f.env.chk.attempt(len(f.due))
	limit := f.c.Eng.Now() + simtime.Time(drainMax)
	for f.terminalCount() < len(f.due) && f.c.Eng.Now() < limit {
		f.c.Run(f.c.Eng.Now() + simtime.Time(250*simtime.Millisecond))
	}
	f.stop = true
	if len(f.reqs) != len(f.due) {
		f.env.chk.fail("fleet.filed", "%d of %d requests filed", len(f.reqs), len(f.due))
	}
	checkRequests(f.env, f.reqs)
}

func (f *fleetEpisode) terminalCount() int {
	n := 0
	for _, r := range f.reqs {
		if r.Phase.Terminal() {
			n++
		}
	}
	return n
}

func (f *fleetEpisode) report(m map[string]float64) {
	for k, v := range f.m {
		m[k] = v
	}
	addClusterCounts(m, f.c)
	modelRequests(m, f.c, f.reqs)
	// Pending→Running latency, timed from each request's due time.
	var lat []float64
	for _, r := range f.reqs {
		if at, ok := f.running[r.Name]; ok {
			lat = append(lat, (at-f.due[r.Name]).Seconds()*1e3)
		}
	}
	m["model.running_n"] = float64(len(lat))
	m["model.p50_running_ms"] = percentile(lat, 50)
	m["model.p999_running_ms"] = percentile(lat, 99.9)
}
