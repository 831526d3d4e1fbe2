package main

import (
	"strings"

	"exist/internal/cluster"
	"exist/internal/decode"
	"exist/internal/node"
	"exist/internal/tracer"
)

// size scales the workloads: the command always runs fullSize; tests run
// smaller ones through the same code.
type size struct {
	// overheadWindows is the paired windows per node-overhead episode.
	overheadWindows int
	// decodeRounds and decodeWorkers shape a trace-decode episode: rounds
	// of that many EXIST worker windows plus one NHT reference.
	decodeRounds, decodeWorkers int
	// fleetNodes, fleetSeconds and fleetRate shape a fleet episode: lite
	// nodes, simulated seconds of open-loop filing, requests per second.
	fleetNodes, fleetSeconds int
	fleetRate                float64
	// e2eRequests is the requests (one per simulated second) per
	// cluster-e2e episode.
	e2eRequests int
}

var fullSize = size{
	overheadWindows: 24,
	decodeRounds:    8, decodeWorkers: 10,
	fleetNodes: 100_000, fleetSeconds: 20, fleetRate: 1000,
	e2eRequests: 30,
}

// workloads returns the benchmark's workloads at the given size.
func workloads(sz size) []benchWorkload {
	return []benchWorkload{
		overheadWorkload(sz),
		traceDecodeWorkload(sz),
		fleetWorkload(sz),
		clusterE2EWorkload(sz),
	}
}

// runWindow drives one node window through Provision → Attach → Run →
// Harvest with a span around each call, grouped under a
// "window.<backend>" span. ok is false after a failed check.
func runWindow(e *env, spec node.Spec, req int) (rt *node.Runtime, res node.Result, ok bool) {
	g := e.rec.begin("window."+spec.Backend, req)
	defer e.rec.end(g)
	s := e.rec.begin("node.Provision", req)
	rt = node.Provision(spec)
	e.rec.end(s)
	s = e.rec.begin("node.Attach", req)
	err := rt.Attach()
	e.rec.end(s)
	if err != nil {
		e.chk.fail("node.attach", "%s under %s: %v", spec.Workload.Name, spec.Backend, err)
		return rt, res, false
	}
	s = e.rec.begin("node.Run", req)
	rt.Run()
	e.rec.end(s)
	s = e.rec.begin("node.Harvest", req)
	res, err = rt.Harvest()
	e.rec.end(s)
	if err != nil {
		e.chk.fail("node.harvest", "%s under %s: %v", spec.Workload.Name, spec.Backend, err)
		return rt, res, false
	}
	if res.Stats.Cycles == 0 {
		e.chk.fail("node.retired_work", "%s under %s retired no cycles", spec.Workload.Name, spec.Backend)
		return rt, res, false
	}
	return rt, res, true
}

// addWindowCounts adds one harvested window's scheduler, EXIST control
// path and PT output counts to m.
func addWindowCounts(m map[string]float64, rt *node.Runtime, res node.Result) {
	m["node.windows"]++
	m["sched.ginsns"] += float64(res.Stats.Insns) / 1e9
	m["sched.gbranches"] += float64(res.Stats.Branches) / 1e9
	m["sched.switches"] += float64(rt.Machine.Stats.Switches)
	m["sched.migrations"] += float64(rt.Machine.Stats.Migrations)
	for _, c := range rt.Machine.Cores {
		m["ipt.trace_mb"] += float64(c.Tracer.Stats.Bytes) / 1e6
	}
	ex, ok := rt.Backend.(*tracer.EXIST)
	if !ok {
		return
	}
	st := ex.CoreSession().Stats
	m["core.msr_ops"] += float64(st.MSROps)
	m["core.switch_records"] += float64(st.SwitchRecords)
	m["core.control_kernel_ms"] += float64(st.ControlKernelNS) / 1e6
	if s := ex.Session(""); s != nil {
		for _, ct := range s.Cores {
			m["ipt.dropped_mb"] += float64(ct.DroppedBytes) / 1e6
			if ct.Stopped {
				m["ipt.stopped_cores"]++
			}
		}
	}
}

// keptFrac sets ipt.kept_frac from the accumulated PT output and drops.
func keptFrac(m map[string]float64) {
	if t := m["ipt.trace_mb"] + m["ipt.dropped_mb"]; t > 0 {
		m["ipt.kept_frac"] = m["ipt.trace_mb"] / t
	}
}

// countDecode adds a decode's counts to m.
func countDecode(m map[string]float64, d *decode.Result) {
	m["decode.mb"] += float64(d.BytesDecoded) / 1e6
	m["decode.events"] += float64(d.Events)
	m["decode.errors"] += float64(len(d.Errors))
	m["decode.resyncs"] += float64(d.Resyncs)
}

// decodeClean fails the check for any decode error of an EXIST session
// other than the truncated trailing packet a compulsory stop leaves. (The
// NHT reference has no switch sidecar, so it may desync at context
// switches; its errors are only counted.)
func decodeClean(e *env, d *decode.Result, what string) bool {
	for _, msg := range d.Errors {
		if !strings.Contains(msg, "truncated") {
			e.chk.fail("decode.errors", "%s: %s", what, msg)
			return false
		}
	}
	return true
}

// checkRequests checks the end state of a drained cluster episode: every
// request terminal, no session key landed twice, and every planned
// session landed or accounted lost, except on requests their deadline
// cut short. It returns how many requests failed a check.
func checkRequests(e *env, reqs []*cluster.TraceRequest) int {
	seen := map[string]bool{}
	failed := 0
	for _, r := range reqs {
		ok := true
		if !r.Phase.Terminal() {
			e.chk.fail("cluster.terminal", "%s still %s after the drain", r.Name, r.Phase)
			ok = false
		}
		for _, k := range r.SessionKeys {
			if seen[k] {
				e.chk.fail("cluster.duplicate_session", "%s: key %s landed twice", r.Name, k)
				ok = false
			}
			seen[k] = true
		}
		expired := strings.HasPrefix(r.Message, "deadline exceeded")
		if r.Phase.Terminal() && !expired && r.Planned != len(r.SessionKeys)+r.Lost {
			e.chk.fail("cluster.accounting", "%s: planned %d, landed %d, lost %d",
				r.Name, r.Planned, len(r.SessionKeys), r.Lost)
			ok = false
		}
		if !ok {
			failed++
		}
	}
	return failed
}

// addClusterCounts adds the control plane's and the fault injector's
// ledgers to m.
func addClusterCounts(m map[string]float64, c *cluster.Cluster) {
	g := c.Mgmt
	for k, v := range map[string]int64{
		"cluster.syncs":           g.Syncs,
		"cluster.reconciles":      g.Reconciles,
		"cluster.requeues":        g.Requeues,
		"cluster.conflicts":       g.Conflicts,
		"cluster.relists":         g.Relists,
		"cluster.elections":       g.Elections,
		"cluster.fenced_ops":      g.FencedOps,
		"cluster.retries":         g.Retries,
		"cluster.resamples":       g.Resamples,
		"cluster.lease_expiries":  g.LeaseExpiries,
		"cluster.rebalances":      int64(c.ShardRebalances()),
		"cluster.upload_puts":     c.Uploads.Batches,
		"cluster.upload_sessions": c.Uploads.Sessions,
	} {
		m[k] = float64(v)
	}
	m["cluster.upload_wire_mb"] = float64(c.Uploads.WireBytes) / 1e6
	if len(c.Readopts) > 0 {
		m["cluster.readopt_ms"] = mean(c.Readopts)
	}
	fs := c.Cfg.Faults.Stats()
	for k, v := range map[string]int64{
		"faults.crashes":       fs.Crashes,
		"faults.ctrl_crashes":  fs.CtrlCrashes,
		"faults.put_failures":  fs.PutFailures,
		"faults.sessions_lost": fs.SessionsLost,
		"faults.leaves":        fs.Leaves,
		"faults.gray_delays":   fs.GrayDelays,
	} {
		m[k] = float64(v)
	}
}

// modelRequests sets the request-level model values of a drained cluster
// episode: management CPU per filed request, and the share of requests
// that ended other than Completed.
func modelRequests(m map[string]float64, c *cluster.Cluster, reqs []*cluster.TraceRequest) {
	if len(reqs) == 0 {
		return
	}
	degraded := 0
	for _, r := range reqs {
		if r.Phase != cluster.PhaseCompleted {
			degraded++
		}
	}
	m["model.degraded_frac"] = float64(degraded) / float64(len(reqs))
	m["model.mgmt_cpu_us_per_req"] = c.Mgmt.CPUSeconds / float64(len(reqs)) * 1e6
}
