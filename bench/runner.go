package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many set-ups a run times; setup_s is their median.
const setupReps = 9

// benchWorkload is one named benchmark input: a generator of episodes.
type benchWorkload struct {
	name string
	// workMetric names the per-layer rate that an op's work feeds.
	workMetric string
	// start builds an episode from the run seed: it generates the inputs
	// and builds the system under test, then, with warm set, runs the
	// warm-up that lets lazy set-up finish. It is what setup_s times.
	start func(e *env, seed uint64, warm bool) (episode, error)
}

// episode is one instance of a workload, advanced one timed op at a time.
type episode interface {
	// ops is the number of ops in the episode.
	ops() int
	// op runs op i and returns the work it did, in the workload's unit.
	op(i int) float64
	// finish drains a fully run episode and checks its end state.
	finish()
	// report adds the episode's counts and model values to m.
	report(m map[string]float64)
}

// env is what episodes share with the runner.
type env struct {
	rec *recorder
	chk *checks
}

// checks counts the units a run attempted and the checks that failed.
type checks struct {
	attempted, failed int
	byName            map[string]int
}

func (c *checks) attempt(n int) { c.attempted += n }

// fail records one failed check; the first failure of each name is
// reported on stderr with its detail.
func (c *checks) fail(name, format string, args ...any) {
	c.failed++
	if c.byName == nil {
		c.byName = map[string]int{}
	}
	if c.byName[name] == 0 {
		fmt.Fprintf(os.Stderr, "check %s failed: %s\n", name, fmt.Sprintf(format, args...))
	}
	c.byName[name]++
}

// names returns the failed checks, sorted.
func (c *checks) names() []string {
	var out []string
	for n := range c.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// opSample is one timed op: op i of pass p, with the reference kernel
// time measured just before it.
type opSample struct {
	pass, i        int
	wall, cpu, ref time.Duration
	allocs         uint64
	work           float64
	traced         bool
}

// result is what one run measured.
type result struct {
	chk     *checks
	e2e     map[string]float64
	layer   map[string]float64
	spans   []span
	profile []byte
}

// run replays the workload's episode, pass after pass, until budget has
// passed, building it afresh before each pass. Every pass is the same
// simulated work on a freshly collected heap, so the time of op i differs
// between passes only by host noise: scaled to the reference kernel's
// speed in its pass, each op keeps its least-disturbed wall time over the
// passes (see bestOp for CPU time). The first pass always runs to its end
// and alone supplies the counts and model values, so they do not depend
// on host speed. The first setupReps set-ups also warm up and are timed:
// one before the first pass, the others before the next passes (and after
// the last, when there are fewer passes), so that their median, setup_s,
// samples host drift over the whole run. With traced set, odd passes
// record spans (the second always runs to its end) and the passes are
// CPU-profiled.
func run(w benchWorkload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	e := &env{rec: newRecorder(), chk: &checks{}}
	var setups []float64
	var setupRefs []time.Duration
	var ep episode
	built := 0
	setup := func() error {
		// Drop the previous episode first, so the set-up neither carries
		// its heap through the collection nor holds two episodes at once.
		ep = nil
		runtime.GC()
		timed := len(setups) < setupReps
		if timed {
			setupRefs = append(setupRefs, refKernel())
		}
		e.rec.on = traced
		s := e.rec.begin("setup", built)
		built++
		t0 := time.Now()
		var err error
		ep, err = w.start(e, seed, timed)
		d := time.Since(t0)
		e.rec.end(s)
		e.rec.on = false
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		if timed {
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	layer := map[string]float64{}
	var samples []opSample
	deadline := time.Now().Add(budget)
	over := func(pass int) bool {
		return pass > 0 && !(traced && pass == 1) && time.Now().After(deadline)
	}
	for pass := 0; !over(pass); pass++ {
		if pass > 0 {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		ops, done := ep.ops(), 0
		for i := 0; i < ops && !over(pass); i++ {
			s := opSample{pass: pass, i: i, ref: refKernel(), traced: traced && pass%2 == 1}
			e.rec.on = s.traced
			id := e.rec.begin("op", i)
			a0, c0, t0 := heapAllocs(), cpuTime(), time.Now()
			s.work = ep.op(i)
			s.wall, s.cpu, s.allocs = time.Since(t0), cpuTime()-c0, heapAllocs()-a0
			e.rec.end(id)
			e.rec.on = false
			samples = append(samples, s)
			done++
		}
		if done == ops {
			ep.finish()
		}
		if pass == 0 {
			ep.report(layer)
		}
	}
	if traced {
		pprof.StopCPUProfile()
	}
	for len(setups) < setupReps {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	// Scale each pass to the reference kernel's speed in it.
	passRefs := map[int][]time.Duration{}
	var refs []time.Duration
	for _, s := range samples {
		passRefs[s.pass] = append(passRefs[s.pass], s.ref)
		refs = append(refs, s.ref)
	}
	scale := map[int]float64{}
	for p, rs := range passRefs {
		scale[p] = float64(refNominal) / float64(medianDuration(rs))
	}
	best := bestOps(samples, ep.ops(), false, scale)
	var wallBest, cpuBest, rawBest time.Duration
	for _, b := range best {
		wallBest += b.wall
		cpuBest += b.cpu
		rawBest += b.raw
	}
	n := float64(len(best))
	setupScale := float64(refNominal) / float64(medianDuration(setupRefs))
	res := &result{chk: e.chk, layer: layer, spans: e.rec.spans, profile: prof.Bytes()}
	res.e2e = map[string]float64{
		"op_ms":       wallBest.Seconds() * 1e3 / n,
		"op_cpu_ms":   cpuBest.Seconds() * 1e3 / n,
		"peak_rss_mb": peakRSSMB(),
		"setup_s":     median(setups) * setupScale,
	}
	layer["bench.ref_ms"] = medianDuration(refs).Seconds() * 1e3
	layer["bench.raw_op_ms"] = rawBest.Seconds() * 1e3 / n

	var allocs uint64
	var work float64
	var wall, cpuAll time.Duration
	for _, s := range samples {
		allocs += s.allocs
		if !s.traced {
			work += s.work
			wall += s.wall
			cpuAll += s.cpu
		}
	}
	layer["bench.ops"] = float64(len(samples))
	layer["bench.alloc_mb_per_op"] = float64(allocs) / 1e6 / float64(len(samples))
	layer["bench.cpu_per_wall"] = cpuAll.Seconds() / wall.Seconds()
	layer[w.workMetric] = work / wall.Seconds()
	if traced {
		if err := traceLayers(res, samples, best, bestOps(samples, ep.ops(), true, scale)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// bestOp is one op's times over the passes, scaled to the reference
// kernel's speed: wall its least-disturbed wall time (raw the unscaled
// wall time of the same sample), cpu that wall time plus the op's mean
// CPU time beyond its wall time. The CPU beyond wall time is other
// goroutines' work, the collector's and the parallel node jobs'. It comes
// in bursts that the least-disturbed sample would mostly leave out, so it
// is averaged over the passes instead.
type bestOp struct {
	wall, cpu, raw time.Duration
}

// bestOps returns, for each of the n ops, its times over the traced or
// the untraced samples; an op no such sample covers reads 0.
func bestOps(samples []opSample, n int, traced bool, scale map[int]float64) []bestOp {
	best := make([]bestOp, n)
	extra := make([]float64, n)
	count := make([]int, n)
	for _, s := range samples {
		if s.traced != traced {
			continue
		}
		b := &best[s.i]
		if wall := time.Duration(float64(s.wall) * scale[s.pass]); b.wall == 0 || wall < b.wall {
			b.wall, b.raw = wall, s.wall
		}
		extra[s.i] += float64(s.cpu-s.wall) * scale[s.pass]
		count[s.i]++
	}
	for i := range best {
		if count[i] > 0 {
			best[i].cpu = best[i].wall + time.Duration(extra[i]/float64(count[i]))
		}
	}
	return best
}

// traceLayers fills the per-layer metrics a traced run derives from its
// spans and CPU profile, and checks that span self times account for the
// traced ops.
func traceLayers(res *result, samples []opSample, untraced, traced []bestOp) error {
	layer := res.layer
	// Tracing overhead: the same ops, traced against untraced.
	var pairTraced, pairBase time.Duration
	for i, t := range traced {
		if t.wall > 0 {
			pairTraced += t.wall
			pairBase += untraced[i].wall
		}
	}
	var tracedOps int
	var tracedWall time.Duration
	for _, s := range samples {
		if s.traced {
			tracedOps++
			tracedWall += s.wall
		}
	}
	if tracedOps == 0 || pairBase == 0 {
		return fmt.Errorf("traced run too short: %d traced ops", tracedOps)
	}
	layer["bench.trace_overhead_pct"] = (pairTraced.Seconds()/pairBase.Seconds() - 1) * 100

	ops := summarize(res.spans, "op")
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(tracedOps) }
	if got, want := float64(ops.total()), float64(tracedWall); got < 0.95*want || got > 1.05*want {
		res.chk.fail("spans.self_sum", "span self times sum to %.3f s, traced ops took %.3f s", got/1e9, want/1e9)
	}
	var benchSelf int64
	for name, v := range ops.self {
		if name == "op" || strings.HasPrefix(name, "window.") {
			benchSelf += v
		}
	}
	layer["bench.self_ms"] = perOp(benchSelf)
	for metric, call := range map[string]string{
		"node.provision_ms":  "node.Provision",
		"node.attach_ms":     "node.Attach",
		"node.run_ms":        "node.Run",
		"node.harvest_ms":    "node.Harvest",
		"trace.marshal_ms":   "trace.Marshal",
		"trace.unmarshal_ms": "trace.UnmarshalSession",
		"decode.busy_ms":     "decode.Decode",
		"coverage.merge_ms":  "coverage.Merge",
		"cluster.request_ms": "cluster.Request",
		"cluster.run_ms":     "cluster.Run",
		"oss.get_ms":         "oss.Get",
	} {
		layer[metric] = perOp(ops.self[call])
	}
	layer["tracer.exist_extra_ms"] = perOp(ops.under["window.EXIST/node.Run"] - ops.under["window.Oracle/node.Run"])

	// Set-up calls, as seconds per set-up.
	setups := summarize(res.spans, "setup")
	for metric, call := range map[string]string{
		"workload.synthesize_s": "workload.Synthesize",
		"cluster.new_s":         "cluster.New",
		"cluster.deploy_s":      "cluster.Deploy",
	} {
		layer[metric] = float64(setups.self[call]) / 1e9 / float64(setups.count["setup"])
	}

	shares, err := cpuShares(res.profile)
	if err != nil {
		return err
	}
	for l, v := range shares {
		layer["pkg."+l+".cpu_share"] = v
	}
	return nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes allocated on the Go heap.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
