package main

import (
	"exist/internal/node"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// overheadApps are the online and cloud profiles the paper measures
// overhead on (Table 1).
var overheadApps = []string{"mc", "ng", "ms", "Search1", "Search2", "Cache", "Pred", "Agent"}

// overheadWorkload is the paper's per-mille overhead measurement (§5.2):
// paired Oracle and EXIST windows on an 8-core node with analytic
// execution. It exercises sched, kernel, the ipt bulk/ToPA path, the core
// OTC hook and simtime, and bypasses the walker, the wire format, decode
// and cluster. One op is one paired window: op i traces app i mod 8, under
// an 8 MB EXIST budget when i mod 3 is 2, so 24 ops cover every pairing.
func overheadWorkload(sz size) benchWorkload {
	return benchWorkload{
		name: "node-overhead", workMetric: "bench.sim_ginsn_per_s",
		start: func(e *env, seed uint64, warm bool) (episode, error) {
			o := &overheadEpisode{env: e, seed: seed, n: sz.overheadWindows, m: map[string]float64{}}
			for _, name := range overheadApps {
				p, err := workload.ByName(name)
				if err != nil {
					return nil, err
				}
				o.apps = append(o.apps, p)
			}
			if warm {
				// Warm up every app's code path on inputs no timed op uses.
				for i, p := range o.apps {
					o.pair(-1-i, p, 0, mix(o.seed, 1<<32+uint64(i)))
				}
			}
			return o, nil
		},
	}
}

type overheadEpisode struct {
	env               *env
	seed              uint64
	n                 int
	apps              []workload.Profile
	m                 map[string]float64
	overhead, spaceMB []float64
}

func (o *overheadEpisode) ops() int { return o.n }

func (o *overheadEpisode) op(i int) float64 {
	var budget int64
	if i%3 == 2 {
		// Tight enough that EXIST hits its compulsory stop.
		budget = 8 << 20
	}
	o.env.chk.attempt(2)
	oracle, exist, ok := o.pair(i, o.apps[i%len(o.apps)], budget, mix(o.seed, uint64(i)))
	if !ok {
		return 0
	}
	addWindowCounts(o.m, oracle.rt, oracle.res)
	addWindowCounts(o.m, exist.rt, exist.res)
	o.overhead = append(o.overhead, exist.res.Overhead(oracle.res)*100)
	o.spaceMB = append(o.spaceMB, exist.res.SpaceMB)
	return float64(oracle.res.Stats.Insns+exist.res.Stats.Insns) / 1e9
}

// window is one harvested node window.
type window struct {
	rt  *node.Runtime
	res node.Result
}

// pair runs one window of p under Oracle and then under EXIST on the same
// seed, so both see the identical workload realization.
func (o *overheadEpisode) pair(id int, p workload.Profile, budget int64, seed uint64) (oracle, exist window, ok bool) {
	spec := node.Spec{Workload: p, Seed: seed, Timeslice: simtime.Millisecond, MemBudget: budget}
	spec.Backend = "Oracle"
	if oracle.rt, oracle.res, ok = runWindow(o.env, spec, 2*id); !ok {
		return oracle, exist, false
	}
	spec.Backend = "EXIST"
	exist.rt, exist.res, ok = runWindow(o.env, spec, 2*id+1)
	return oracle, exist, ok
}

func (o *overheadEpisode) finish() {}

func (o *overheadEpisode) report(m map[string]float64) {
	for k, v := range o.m {
		m[k] = v
	}
	keptFrac(m)
	m["model.overhead_pct"] = mean(o.overhead)
	m["model.space_mb"] = mean(o.spaceMB)
}
