// Package service simulates a microservice RPC chain — the DeathStarBench
// ComposePost-style request path used for the paper's end-to-end
// experiments (Figures 3b and 16, and the online throughput comparison of
// Figure 14).
//
// The model is a tandem queueing network: each tier has a worker pool and
// log-normal service times; a request visits the first tier and each tier
// makes a configurable number of *sequential* downstream calls (the paper
// notes tens of RPCs between two services for one request, which is what
// amplifies single-service tracing overhead into large end-to-end
// slowdowns). A tracing scheme appears as an Overhead on one tier:
// multiplicative service inflation plus occasional stall spikes
// (sampling interrupts, buffer hauling) — exactly the node-level effects
// measured on the scheduler substrate.
package service

import (
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// TierSpec describes one service tier.
type TierSpec struct {
	// Name labels the tier.
	Name string
	// Workers is the concurrent server pool size.
	Workers int
	// MeanService is the mean per-visit service time.
	MeanService simtime.Duration
	// CV is the service time's coefficient of variation.
	CV float64
	// CallsToNext is the number of sequential RPCs this tier makes to the
	// next tier per visit (ignored for the last tier).
	CallsToNext int
}

// ChainSpec describes the whole request path.
type ChainSpec struct {
	// Tiers is ordered from frontend to backend.
	Tiers []TierSpec
	// Seed drives all randomness.
	Seed uint64
}

// ComposePostChain returns the three-tier chain used by the end-to-end
// experiments: Proxy -> Logic -> DB with three DB calls per logic visit.
//
// The model is one service *instance* with small worker pools (as on the
// paper's DeathStarBench deployment, where pools are bounded by cores):
// per-instance capacity is ~1.1e3 requests/s and the idle response time is
// ~22 ms, matching Figure 16's axis. The paper's cluster-wide load points
// (1e2..1e5 requests/s) map onto one instance by dividing by the
// deployment width; see InstanceRate.
func ComposePostChain(seed uint64) ChainSpec {
	return ChainSpec{
		Seed: seed,
		Tiers: []TierSpec{
			{Name: "Proxy", Workers: 4, MeanService: 3800 * simtime.Microsecond, CV: 0.8, CallsToNext: 1},
			{Name: "Logic", Workers: 8, MeanService: 7600 * simtime.Microsecond, CV: 1.0, CallsToNext: 3},
			{Name: "DB", Workers: 12, MeanService: 3800 * simtime.Microsecond, CV: 1.2},
		},
	}
}

// DeploymentWidth is the number of service instances the cluster-wide
// load is spread over when mapping the paper's load axis onto one
// simulated instance.
const DeploymentWidth = 100

// InstanceRate converts a cluster-wide request rate (the paper's
// "Load=1eN") to one instance's arrival rate.
func InstanceRate(clusterLoad float64) float64 { return clusterLoad / DeploymentWidth }

// Overhead is a tracing scheme's effect on one tier.
type Overhead struct {
	// Tier indexes ChainSpec.Tiers.
	Tier int
	// Frac is the multiplicative service-time inflation (0.02 = 2%).
	Frac float64
	// SpikeProb is the per-visit probability of an extra stall.
	SpikeProb float64
	// Spike is the stall duration.
	Spike simtime.Duration
}

// Result reports one run.
type Result struct {
	// Completed counts finished requests.
	Completed int
	// Dropped counts requests still in flight at the deadline.
	Dropped int
	// ThroughputRPS is completed / duration.
	ThroughputRPS float64
	// RTms holds completed request response times in milliseconds
	// (schedule runs only).
	RTms []float64
	// ByClient holds completed response times (ms) per client index
	// (schedule runs only).
	ByClient [][]float64
}

// tier is runtime queue state. The log-normal (mu, sigma) of the inflated
// service-time distribution is precomputed once per run — the draw in
// startService is bit-identical to recomputing them per visit.
type tier struct {
	spec  TierSpec
	spike Overhead
	mu    float64
	sigma float64
	busy  int
	queue []*request
	qhead int
}

// request is one pooled in-flight request: its position along the chain's
// static visit sequence, its reseedable private RNG stream, and a cached
// completion callback so the hot path schedules service completions
// without allocating a closure per visit.
type request struct {
	c          *chain
	rng        *xrand.Rand
	begin      simtime.Time
	pos        int // index into chain.visitSeq: the tier being served or queued for
	client     int // scheduled runs: originating client index (else 0)
	completeFn func(end simtime.Time)
	issueFn    func(now simtime.Time) // closed loop only: reissue this client
}

// chain is one simulation instance. Because every tier makes a fixed
// number of sequential downstream calls, the tiers a request visits form a
// static sequence (visitSeq) shared by all requests; a request is just a
// cursor into it. Service times are drawn from the request's own stream
// (common random numbers): runs that differ only in tracing overhead see
// identical baseline draws, so slowdown comparisons are paired.
type chain struct {
	eng      *simtime.Engine
	seed     uint64
	tiers    []tier
	visitSeq []int8
	free     []*request
	onDone   func(r *request, end simtime.Time)
}

func newChain(spec ChainSpec, ov []Overhead) *chain {
	c := &chain{
		eng:  simtime.NewEngine(),
		seed: spec.Seed,
	}
	infl := make([]float64, len(spec.Tiers))
	for i, ts := range spec.Tiers {
		c.tiers = append(c.tiers, tier{spec: ts})
		infl[i] = 1
	}
	for _, o := range ov {
		if o.Tier >= 0 && o.Tier < len(c.tiers) {
			infl[o.Tier] = 1 + o.Frac
			c.tiers[o.Tier].spike = o
		}
	}
	for i := range c.tiers {
		t := &c.tiers[i]
		t.mu, t.sigma = xrand.LogNormalParams(float64(t.spec.MeanService)*infl[i], t.spec.CV)
	}
	// Flatten the call tree of one request into the tier visit order:
	// depth-first, each tier followed by CallsToNext copies of the next
	// tier's subtree.
	var walk func(i int)
	walk = func(i int) {
		c.visitSeq = append(c.visitSeq, int8(i))
		if i+1 < len(c.tiers) {
			for k := 0; k < c.tiers[i].spec.CallsToNext; k++ {
				walk(i + 1)
			}
		}
	}
	walk(0)
	return c
}

// alloc returns a pooled request, creating one (with its cached completion
// closure) only when the pool is empty.
func (c *chain) alloc() *request {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		return r
	}
	r := &request{c: c, rng: xrand.New(0)}
	r.completeFn = r.complete
	return r
}

// enter places the request at its current tier: service starts immediately
// if a worker is free, otherwise the request joins the tier's FIFO queue.
func (c *chain) enter(r *request, t *tier, now simtime.Time) {
	if t.busy < t.spec.Workers {
		t.busy++
		c.startService(r, t, now)
		return
	}
	t.queue = append(t.queue, r)
}

// startService draws the visit's service time from the request's stream
// and schedules its completion. The caller has already taken a worker.
func (c *chain) startService(r *request, t *tier, at simtime.Time) {
	dur := simtime.Duration(r.rng.LogNormalMS(t.mu, t.sigma))
	if dur < simtime.Microsecond {
		dur = simtime.Microsecond
	}
	if t.spike.SpikeProb > 0 && r.rng.Bool(t.spike.SpikeProb) {
		dur += t.spike.Spike
	}
	c.eng.ScheduleDetached(at+dur, r.completeFn)
}

// complete finishes the request's current visit: release the worker, hand
// it to the queue's head if any, then advance this request to its next
// tier (or finish it). The queued request starts service before this one
// advances, matching the tandem model's event order.
func (r *request) complete(end simtime.Time) {
	c := r.c
	t := &c.tiers[c.visitSeq[r.pos]]
	t.busy--
	if t.qhead < len(t.queue) {
		next := t.queue[t.qhead]
		t.queue[t.qhead] = nil
		t.qhead++
		if t.qhead == len(t.queue) {
			t.queue = t.queue[:0]
			t.qhead = 0
		}
		t.busy++
		c.startService(next, t, end)
	}
	r.pos++
	if r.pos < len(c.visitSeq) {
		c.enter(r, &c.tiers[c.visitSeq[r.pos]], end)
		return
	}
	c.onDone(r, end)
}

// launch (re)starts a pooled request as request number idx at time now.
func (c *chain) launch(r *request, idx int, now simtime.Time) {
	r.begin = now
	r.pos = 0
	r.rng.ReseedSplitN(c.seed, "service/req", idx)
	c.enter(r, &c.tiers[c.visitSeq[0]], now)
}

// RunClosedLoop drives the chain with a fixed client population for dur;
// each client reissues immediately on completion. Throughput under a
// closed loop is the online-benchmark metric of Figure 14, so the run
// counts completions and keeps no response times.
func RunClosedLoop(spec ChainSpec, clients int, dur simtime.Duration, ov []Overhead) Result {
	c := newChain(spec, ov)
	res := Result{}
	idx := 0
	c.onDone = func(r *request, end simtime.Time) {
		if end < dur {
			res.Completed++
			c.eng.ScheduleDetached(end, r.issueFn)
		}
	}
	for i := 0; i < clients; i++ {
		r := c.alloc()
		r.issueFn = func(now simtime.Time) {
			c.launch(r, idx, now)
			idx++
		}
		c.eng.ScheduleDetached(simtime.Duration(i)*simtime.Microsecond, r.issueFn)
	}
	c.eng.RunUntil(dur)
	res.ThroughputRPS = float64(res.Completed) / dur.Seconds()
	return res
}

// Arrival is one externally-scheduled request arrival, typically compiled
// from a scenario spec (spec.ArrivalEvent converts field for field).
type Arrival struct {
	// At is the arrival time from run start.
	At simtime.Time
	// Client indexes the originating traffic source.
	Client int
}

// Poisson returns an open-loop schedule: Poisson arrivals at ratePerSec
// from the seed's "service/arrivals" stream, every one before dur, all
// from client 0.
func Poisson(seed uint64, ratePerSec float64, dur simtime.Duration) []Arrival {
	arr := xrand.Split(seed, "service/arrivals")
	mean := 1e9 / ratePerSec
	var out []Arrival
	for at := simtime.Duration(arr.Exp(mean)); at < dur; at += simtime.Duration(arr.Exp(mean)) {
		out = append(out, Arrival{At: at})
	}
	return out
}

// RunSchedule drives the chain with a precompiled arrival schedule
// (sorted by time) for dur, then drains up to 5x dur; requests still in
// flight at the drain deadline count as dropped. Each request's service
// draws come from its own stream keyed by arrival index, so the run is
// deterministic for a given schedule regardless of how it was produced.
// clients sizes ByClient; arrivals naming an index outside [0, clients)
// still run but are only aggregated. Poisson builds the open-loop
// schedule of Figures 3b and 16.
func RunSchedule(spec ChainSpec, arrivals []Arrival, dur simtime.Duration, clients int, ov []Overhead) Result {
	c := newChain(spec, ov)
	res := Result{ByClient: make([][]float64, clients)}
	c.onDone = func(r *request, end simtime.Time) {
		res.Completed++
		rt := (end - r.begin).Millis()
		res.RTms = append(res.RTms, rt)
		if r.client >= 0 && r.client < len(res.ByClient) {
			res.ByClient[r.client] = append(res.ByClient[r.client], rt)
		}
		c.free = append(c.free, r)
	}
	i := 0
	var pump func(now simtime.Time)
	pump = func(now simtime.Time) {
		for i < len(arrivals) && arrivals[i].At <= now {
			r := c.alloc()
			r.client = arrivals[i].Client
			c.launch(r, i, now)
			i++
		}
		if i < len(arrivals) {
			c.eng.ScheduleDetached(arrivals[i].At, pump)
		}
	}
	if len(arrivals) > 0 {
		c.eng.ScheduleDetached(arrivals[0].At, pump)
	}
	c.eng.RunUntil(dur * 5)
	res.Dropped = int(c.inFlight())
	res.ThroughputRPS = float64(res.Completed) / dur.Seconds()
	return res
}

// inFlight counts visits queued or being served.
func (c *chain) inFlight() int64 {
	var n int64
	for i := range c.tiers {
		t := &c.tiers[i]
		n += int64(t.busy) + int64(len(t.queue)-t.qhead)
	}
	return n
}
