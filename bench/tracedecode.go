package main

import (
	"bytes"

	"exist/internal/binary"
	"exist/internal/coverage"
	"exist/internal/decode"
	"exist/internal/memalloc"
	"exist/internal/metrics"
	"exist/internal/node"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
)

// decodePeriod is each trace-decode window's traced period.
const decodePeriod = 100 * simtime.Millisecond

// traceDecodeWorkload is the paper's accuracy path (§5.3, Figure 20):
// walker-backed Search1 with a Cache co-runner on 16-core nodes, traced by
// EXIST workers and one exhaustive NHT reference, then the whole read path
// — packed wire encoding, unmarshal, decode, cluster-level merge — scored
// against the reference. It exercises what node-overhead bypasses. One op
// is one round with fresh window seeds.
func traceDecodeWorkload(sz size) benchWorkload {
	return benchWorkload{
		name: "trace-decode", workMetric: "bench.trace_mb_per_s",
		start: func(e *env, seed uint64, warm bool) (episode, error) {
			d := &decodeEpisode{env: e, seed: seed, sz: sz, m: map[string]float64{}}
			var err error
			if d.target, err = workload.ByName("Search1"); err != nil {
				return nil, err
			}
			// A binary large relative to the window keeps each worker's
			// coverage partial, so merging workers has something to add.
			d.target.Funcs = 420
			if d.noise, err = workload.ByName("Cache"); err != nil {
				return nil, err
			}
			// Each round traces its own binary, so an episode averages over
			// as many programs as it has rounds.
			for r := 0; r < sz.decodeRounds; r++ {
				s := e.rec.begin("workload.Synthesize", r)
				d.progs = append(d.progs, d.target.Synthesize(mix(seed, uint64(r))))
				e.rec.end(s)
			}
			if warm {
				// The warm-up traces a fixed program of its own: warming an
				// op's program would spare that op's first pass the lazy
				// program indexes every later pass builds.
				s := e.rec.begin("workload.Synthesize", -1)
				d.warm = d.target.Synthesize(mix(0, 1<<32))
				e.rec.end(s)
				d.round(-1, nil)
			}
			return d, nil
		},
	}
}

type decodeEpisode struct {
	env           *env
	seed          uint64
	sz            size
	target, noise workload.Profile
	progs         []*binary.Program
	warm          *binary.Program
	m             map[string]float64
	accuracy      []float64
	distinct      []float64
}

func (d *decodeEpisode) ops() int { return d.sz.decodeRounds }

func (d *decodeEpisode) op(i int) float64 {
	d.env.chk.attempt(d.sz.decodeWorkers + 1)
	return d.round(i, d.m)
}

// round captures decodeWorkers EXIST windows and one NHT reference of
// round r's program, sends every session through the wire format and the
// decoder, merges the workers and scores the merge against the reference.
// Counts go to m (nil: the warm-up round, r < 0, which traces the warm-up
// program). It returns the v1-equivalent MB it carried.
func (d *decodeEpisode) round(r int, m map[string]float64) float64 {
	if m == nil {
		m = map[string]float64{}
	}
	e := d.env
	prog := d.warm
	if r >= 0 {
		prog = d.progs[r]
	}
	var workers []*decode.Result
	var ref *decode.Result
	var v1MB float64
	for w := 0; w <= d.sz.decodeWorkers; w++ {
		isRef := w == d.sz.decodeWorkers
		id := r*(d.sz.decodeWorkers+1) + w
		spec := node.Spec{
			Cores: 16, Timeslice: 500 * simtime.Microsecond, Seed: mix(d.seed, uint64(r), uint64(w)),
			Workload: d.target, Walker: true, Scale: trace.SpaceScale, Prog: prog,
			CoRunners:    []node.CoRunner{{Profile: d.noise, SeedOffset: 55}},
			Housekeeping: true, Dur: decodePeriod, KeepSession: true,
		}
		if isRef {
			spec.Backend = "NHT"
			spec.Tracer.FilterTarget = true
			spec.Warmup = 300 * simtime.Millisecond
		} else {
			spec.Backend = "EXIST"
			// EXIST's timer closes the window; the drain lets it fire.
			spec.Drain = 10 * simtime.Millisecond
			spec.Warmup = 100 * simtime.Millisecond
			mem := memalloc.DefaultConfig()
			spec.Tracer.Mem = &mem
		}
		rt, res, ok := runWindow(e, spec, id)
		if !ok {
			continue
		}
		addWindowCounts(m, rt, res)
		dec, mb, ok := d.readPath(res.Session, prog, id, !isRef, m)
		if !ok {
			continue
		}
		v1MB += mb
		if isRef {
			ref = dec
		} else {
			workers = append(workers, dec)
		}
	}
	if ref == nil || len(workers) == 0 {
		return v1MB
	}
	s := e.rec.begin("coverage.Merge", r)
	merged := coverage.Merge(workers)
	e.rec.end(s)
	s = e.rec.begin("metrics.WeightMatch", r)
	acc := metrics.WeightMatch(ref.FuncEntries, merged.Merged.FuncEntries)
	e.rec.end(s)
	if r >= 0 {
		d.accuracy = append(d.accuracy, acc)
		d.distinct = append(d.distinct, float64(merged.DistinctFuncs))
	}
	return v1MB
}

// readPath sends one captured session through Marshal → UnmarshalSession →
// Decode, checking that the round trip is byte-equal per core and, for an
// EXIST session (exist set), that it decodes cleanly. It returns the
// decode and the session's v1-equivalent size in MB.
func (d *decodeEpisode) readPath(sess *trace.Session, prog *binary.Program, id int, exist bool, m map[string]float64) (*decode.Result, float64, bool) {
	e := d.env
	if sess == nil {
		e.chk.fail("node.session", "window %d produced no session", id)
		return nil, 0, false
	}
	s := e.rec.begin("trace.Marshal", id)
	blob := sess.Marshal()
	e.rec.end(s)
	s = e.rec.begin("trace.UnmarshalSession", id)
	back, err := trace.UnmarshalSession(blob)
	e.rec.end(s)
	if err != nil {
		e.chk.fail("trace.roundtrip", "session %s: %v", sess.ID, err)
		return nil, 0, false
	}
	if !sameCores(sess, back) {
		e.chk.fail("trace.roundtrip", "session %s: per-core payloads differ after the round trip", sess.ID)
		return nil, 0, false
	}
	v1MB := float64(trace.V1Size(sess)) / 1e6
	m["trace.v1_mb"] += v1MB
	m["trace.wire_mb"] += float64(len(blob)) / 1e6
	s = e.rec.begin("decode.Decode", id)
	dec := decode.Decode(back, prog)
	e.rec.end(s)
	countDecode(m, dec)
	return dec, v1MB, !exist || decodeClean(e, dec, sess.ID)
}

// sameCores reports whether two sessions carry byte-equal core payloads
// with the same stop and wrap state.
func sameCores(a, b *trace.Session) bool {
	if len(a.Cores) != len(b.Cores) {
		return false
	}
	for i, c := range a.Cores {
		o := b.Cores[i]
		if c.Core != o.Core || c.Stopped != o.Stopped || c.Wrapped != o.Wrapped || !bytes.Equal(c.Data, o.Data) {
			return false
		}
	}
	return true
}

func (d *decodeEpisode) finish() {}

func (d *decodeEpisode) report(m map[string]float64) {
	for k, v := range d.m {
		m[k] = v
	}
	keptFrac(m)
	m["model.accuracy"] = mean(d.accuracy)
	m["coverage.distinct_funcs"] = mean(d.distinct)
	if w := d.m["trace.wire_mb"]; w > 0 {
		m["model.packed_ratio"] = d.m["trace.v1_mb"] / w
	}
}
