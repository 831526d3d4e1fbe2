package main

import (
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/decode"
	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
)

// e2eApps are the walker-backed services the cluster-e2e nodes run;
// requests alternate between them.
var e2eApps = []struct {
	name    string
	purpose coverage.Purpose
}{
	{"Agent", coverage.PurposeProfiling},
	{"Search1", coverage.PurposeAnomaly},
}

// clusterE2EWorkload is the only workload that runs real traced nodes
// under the control plane: the paper's ten-node cluster on the default
// (serial reconciler) plane, node machines advanced on two goroutines,
// batched uploads, and put failures, session loss and node crashes. Each
// landed session is read back from the object store, decoded against the
// cluster's binaries and merged per request. One op is one simulated
// second: one request filed at its due time, the cluster run through the
// second, and the read path of every request that became terminal.
func clusterE2EWorkload(sz size) benchWorkload {
	return benchWorkload{
		name: "cluster-e2e", workMetric: "bench.trace_mb_per_s",
		start: func(e *env, seed uint64, _ bool) (episode, error) {
			return newE2EEpisode(e, sz, seed)
		},
	}
}

type e2eEpisode struct {
	env  *env
	sz   size
	c    *cluster.Cluster
	reqs []*cluster.TraceRequest
	// unread are the indexes of filed requests whose sessions were not
	// read back yet.
	unread   []int
	m        map[string]float64
	coverage []float64
	distinct []float64
}

func newE2EEpisode(e *env, sz size, seed uint64) (*e2eEpisode, error) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.Jobs = 2
	cfg.UploadBatch = 4
	cfg.Faults = faults.New(faults.Config{
		Seed:            seed,
		PutFailProb:     0.1,
		SessionLossProb: 0.05,
		CrashMTBF:       20 * simtime.Second,
	})
	x := &e2eEpisode{env: e, sz: sz, m: map[string]float64{}}
	s := e.rec.begin("cluster.New", -1)
	x.c = cluster.New(cfg)
	e.rec.end(s)
	for i, a := range e2eApps {
		p, err := workload.ByName(a.name)
		if err != nil {
			return nil, err
		}
		// The deployed binaries are part of the workload, not of its
		// seeded inputs: a program drawn per seed would move op times by
		// tens of percent between seeds. They are synthesized here rather
		// than by Deploy, whose program cache would let every set-up after
		// the first skip the work.
		opt := workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: mix(seed, uint64(i))}
		s = e.rec.begin("workload.Synthesize", -1)
		opt.Prog = p.Synthesize(mix(0, uint64(i)))
		e.rec.end(s)
		s = e.rec.begin("cluster.Deploy", -1)
		err = x.c.Deploy(p, nil, opt)
		e.rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	x.run(x.due(0), -1)
	return x, nil
}

// due is when op i files its request: after a one-second pre-roll, one
// request per simulated second.
func (x *e2eEpisode) due(i int) simtime.Time {
	return simtime.Time(i+1) * simtime.Time(simtime.Second)
}

// run advances the cluster to until inside a cluster.Run span.
func (x *e2eEpisode) run(until simtime.Time, req int) {
	s := x.env.rec.begin("cluster.Run", req)
	x.c.Run(until)
	x.env.rec.end(s)
}

func (x *e2eEpisode) ops() int { return x.sz.e2eRequests }

func (x *e2eEpisode) op(i int) float64 {
	e, c := x.env, x.c
	if now := c.Eng.Now(); now != x.due(i) {
		e.chk.fail("cluster.filed_at_due", "request %d filed at %v, due %v", i, now, x.due(i))
	}
	a := e2eApps[i%len(e2eApps)]
	s := e.rec.begin("cluster.Request", i)
	r, err := c.Request(fmt.Sprintf("e2e-%04d", i), cluster.TraceRequestSpec{App: a.name, Purpose: a.purpose})
	e.rec.end(s)
	if err != nil {
		e.chk.fail("cluster.request", "request %d: %v", i, err)
	} else {
		x.unread = append(x.unread, len(x.reqs))
		x.reqs = append(x.reqs, r)
	}
	x.run(x.due(i+1), i)
	x.m["simtime.pending_max"] = max(x.m["simtime.pending_max"], float64(c.Eng.Len()))
	return x.readTerminal()
}

// readTerminal reads back every unread request that reached a terminal
// phase and returns the v1-equivalent MB read.
func (x *e2eEpisode) readTerminal() float64 {
	var mb float64
	kept := x.unread[:0]
	for _, k := range x.unread {
		if x.reqs[k].Phase.Terminal() {
			mb += x.readBack(k)
		} else {
			kept = append(kept, k)
		}
	}
	x.unread = kept
	return mb
}

// readBack fetches a terminal request's sessions from the object store,
// decodes each against the cluster's binary repository and merges them.
func (x *e2eEpisode) readBack(k int) float64 {
	e, c, r := x.env, x.c, x.reqs[k]
	prog := c.Binaries[r.Spec.App]
	var decs []*decode.Result
	var mb float64
	for _, key := range r.SessionKeys {
		s := e.rec.begin("oss.Get", k)
		blob, ok := c.OSS.Get(key)
		e.rec.end(s)
		if !ok {
			e.chk.fail("oss.get", "%s: session %s is not in the object store", r.Name, key)
			continue
		}
		s = e.rec.begin("trace.UnmarshalSession", k)
		sess, err := trace.UnmarshalSession(blob)
		e.rec.end(s)
		if err != nil {
			e.chk.fail("trace.roundtrip", "%s: %v", key, err)
			continue
		}
		v1 := float64(trace.V1Size(sess)) / 1e6
		mb += v1
		x.m["trace.v1_mb"] += v1
		x.m["trace.wire_mb"] += float64(len(blob)) / 1e6
		s = e.rec.begin("decode.Decode", k)
		dec := decode.Decode(sess, prog)
		e.rec.end(s)
		countDecode(x.m, dec)
		if decodeClean(e, dec, key) {
			decs = append(decs, dec)
		}
	}
	x.coverage = append(x.coverage, r.CoverageFraction())
	if len(decs) > 0 {
		s := e.rec.begin("coverage.Merge", k)
		merged := coverage.Merge(decs)
		e.rec.end(s)
		x.distinct = append(x.distinct, float64(merged.DistinctFuncs))
	}
	return mb
}

// finish runs until every request is terminal (bounded by drainMax), reads
// back the rest and checks the end state.
func (x *e2eEpisode) finish() {
	x.env.chk.attempt(len(x.reqs))
	limit := x.c.Eng.Now() + simtime.Time(drainMax)
	for len(x.unread) > 0 && x.c.Eng.Now() < limit {
		x.c.Run(x.c.Eng.Now() + simtime.Time(simtime.Second))
		x.readTerminal()
	}
	checkRequests(x.env, x.reqs)
}

func (x *e2eEpisode) report(m map[string]float64) {
	for k, v := range x.m {
		m[k] = v
	}
	addClusterCounts(m, x.c)
	modelRequests(m, x.c, x.reqs)
	m["model.coverage"] = mean(x.coverage)
	m["coverage.distinct_funcs"] = mean(x.distinct)
	// Integer sums: the apps are a map, and float sums would depend on
	// its iteration order.
	var switches, migrations, insns, branches int64
	for _, n := range x.c.Nodes {
		switches += n.Machine.Stats.Switches
		migrations += n.Machine.Stats.Migrations
		for _, p := range n.Apps {
			st := p.Stats()
			insns += st.Insns
			branches += st.Branches
		}
	}
	m["sched.switches"] = float64(switches)
	m["sched.migrations"] = float64(migrations)
	m["sched.ginsns"] = float64(insns) / 1e9
	m["sched.gbranches"] = float64(branches) / 1e9
}
