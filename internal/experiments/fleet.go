package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/metrics"
	"exist/internal/parallel"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// filing is one trace request a fleet run files at virtual time at.
type filing struct {
	at   simtime.Time
	name string
	spec cluster.TraceRequestSpec
}

// fleetRun is one cluster run of an experiment: the cluster to build, the
// app to deploy on every node, the requests to file and when to stop.
type fleetRun struct {
	name string // names the run in errors
	cfg  cluster.Config
	app  workload.Profile
	opts workload.InstallOpts
	// files returns the run's filings in filing order. The worker calls
	// it when the run starts, so only running runs hold their filings.
	files func() []filing
	stop  simtime.Time
	// step, when set, ends the run at the first step boundary after the
	// first filing where every request is filed and terminal; stop bounds
	// it. The stop test reads sim state at fixed virtual times, so where
	// the run ends does not depend on -jobs.
	step simtime.Duration
	// sampleEvery, when set, samples shard owners and aggregate work-queue
	// depth every sampleEvery from sampleFrom to the end of the run.
	sampleFrom  simtime.Time
	sampleEvery simtime.Duration
}

// fleet is a finished run as read sees it.
type fleet struct {
	c   *cluster.Cluster
	end simtime.Time // where the run stopped
	tally
	maxOwners int     // most fencing-valid owners sampled on one shard
	queueMean float64 // mean sampled aggregate work-queue depth
	queueMax  int
}

// runFleets runs every fleet run on cfg.Jobs workers and returns read's
// value for each, in run order. Every experiment that drives a cluster goes
// through here: each non-Lite cluster advances its node engines on
// parallel.Workers(cfg.Jobs) goroutines, each request is filed at its
// time, and every filed request is tallied once.
//
// A run fails, naming itself, when it breaks a slot invariant: a session
// key uploaded twice, a planned slot neither landed nor given up outside
// deadline expiry, or two fencing-valid owners sampled on one shard.
//
// read runs on the worker that ran the cluster and should keep only what
// the experiment uses: the cluster dies with its run.
func runFleets[T any](cfg Config, runs []fleetRun, read func(i int, f *fleet) T) ([]T, error) {
	return parallel.MapErr(len(runs), cfg.Jobs, func(i int) (T, error) {
		var zero T
		run := runs[i]
		ccfg := run.cfg
		if !ccfg.Lite {
			ccfg.Jobs = parallel.Workers(cfg.Jobs)
		}
		c := cluster.New(ccfg)
		if err := c.Deploy(run.app, nil, run.opts); err != nil {
			return zero, fmt.Errorf("%s: %w", run.name, err)
		}

		// Filing→Running latency probe: the watcher observes each
		// request's first Running transition and never feeds back into
		// the run.
		files := run.files()
		var reqs []*cluster.TraceRequest
		filed := make(map[*cluster.TraceRequest]simtime.Time, len(files))
		waitMs := make(map[*cluster.TraceRequest]float64, len(files))
		c.API.Watch(func(r *cluster.TraceRequest) {
			if at, ok := filed[r]; ok && r.Phase == cluster.PhaseRunning {
				if _, seen := waitMs[r]; !seen {
					waitMs[r] = (c.Eng.Now() - at).Seconds() * 1e3
				}
			}
		})
		for i := range files {
			f := &files[i]
			c.Eng.Schedule(f.at, func(now simtime.Time) {
				if r, err := c.Request(f.name, f.spec); err == nil {
					reqs = append(reqs, r)
					filed[r] = now
				}
			})
		}

		out := &fleet{c: c}
		var queue []float64
		if run.sampleEvery > 0 {
			var sample func(now simtime.Time)
			sample = func(now simtime.Time) {
				depth := 0
				for _, ct := range c.Controllers {
					depth += ct.QueueDepth()
				}
				queue = append(queue, float64(depth))
				out.queueMax = max(out.queueMax, depth)
				for s := 0; s < c.API.Shards(); s++ {
					out.maxOwners = max(out.maxOwners, c.ActiveOwnersShard(s, now))
				}
				c.Eng.AfterDetached(run.sampleEvery, sample)
			}
			c.Eng.ScheduleDetached(run.sampleFrom, sample)
		}

		if run.step == 0 {
			out.end = run.stop
			c.Run(out.end)
		} else {
			for out.end = files[0].at + simtime.Time(run.step); ; out.end += simtime.Time(run.step) {
				c.Run(out.end)
				if (len(reqs) == len(files) && allTerminal(reqs)) || out.end >= run.stop {
					break
				}
			}
		}

		out.tally = tallyRequests(reqs, waitMs)
		out.queueMean = metrics.Mean(queue)
		if out.dupKeys > 0 || out.unacct > 0 || out.maxOwners > 1 {
			return zero, fmt.Errorf("%s: slot invariant broken: %d duplicated session keys, %d unaccounted slots, %d owners on one shard",
				run.name, out.dupKeys, out.unacct, out.maxOwners)
		}
		return read(i, out), nil
	})
}

// tally counts a run's filed requests.
type tally struct {
	requests, terminal int
	covered            int // terminal with at least one session landed
	completed          int
	degraded           int
	failed             int
	coverage           float64 // mean CoverageFraction
	dupKeys            int     // session keys uploaded more than once
	unacct             int     // planned slots neither landed nor given up, outside deadline expiry
	// runningMs holds filing→first Running latencies, in filing order, of
	// the requests that reached Running.
	runningMs []float64
}

// tallyRequests tallies filed requests; waitMs holds the filing→Running
// latency of the requests that reached Running.
func tallyRequests(reqs []*cluster.TraceRequest, waitMs map[*cluster.TraceRequest]float64) tally {
	t := tally{requests: len(reqs)}
	var covSum float64
	seen := make(map[string]bool)
	for _, r := range reqs {
		if r.Phase.Terminal() {
			t.terminal++
			if len(r.SessionKeys) > 0 {
				t.covered++
			}
		}
		switch r.Phase {
		case cluster.PhaseCompleted:
			t.completed++
		case cluster.PhaseDegraded:
			t.degraded++
		case cluster.PhaseFailed:
			t.failed++
		}
		covSum += r.CoverageFraction()
		if ms, ok := waitMs[r]; ok {
			t.runningMs = append(t.runningMs, ms)
		}
		for _, k := range r.SessionKeys {
			if seen[k] {
				t.dupKeys++
			}
			seen[k] = true
		}
		// Deadline expiry abandons in-flight slots by design; otherwise
		// every planned slot must be landed or given up.
		if r.Planned > 0 && !expiredByDeadline(r) {
			t.unacct += max(r.Planned-len(r.SessionKeys)-r.Lost, 0)
		}
	}
	if len(reqs) > 0 {
		t.coverage = covSum / float64(len(reqs))
	}
	return t
}

// expiredByDeadline reports whether the request was forced terminal by
// its deadline (abandoning in-flight slots).
func expiredByDeadline(r *cluster.TraceRequest) bool {
	return strings.HasPrefix(r.Message, "deadline exceeded")
}

// allTerminal reports whether every request has reached a terminal phase.
func allTerminal(reqs []*cluster.TraceRequest) bool {
	for _, r := range reqs {
		if !r.Phase.Terminal() {
			return false
		}
	}
	return true
}

// mixedFilings files n requests against app every 500 ms, alternating
// RCO's two purposes, and returns their generator with a generous stop
// time that deadlines guarantee termination well before. Profiling
// samples a subset of instances, leaving healthy spares the re-sampler
// can recover onto; anomaly diagnosis traces every instance, so a lost
// session has nowhere to go and the request must degrade to partial
// coverage instead of failing.
func mixedFilings(prefix, app string, n int) (func() []filing, simtime.Time) {
	files := func() []filing {
		fs := make([]filing, n)
		for i := range fs {
			purpose, kind := coverage.PurposeProfiling, "prof-"
			if i%2 == 1 {
				purpose, kind = coverage.PurposeAnomaly, "diag-"
			}
			fs[i] = filing{
				at:   simtime.Time(i) * simtime.Time(500*simtime.Millisecond),
				name: prefix + kind + strconv.Itoa(i),
				spec: cluster.TraceRequestSpec{App: app, Purpose: purpose, Period: 200 * simtime.Millisecond},
			}
		}
		return fs
	}
	return files, simtime.Time(n)*simtime.Time(500*simtime.Millisecond) + simtime.Time(15*simtime.Second)
}

// nodeNames returns an n-node fleet's node names by index.
func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "node-" + strconv.Itoa(i)
	}
	return names
}

// stripe names width consecutive nodes of a fleet from start, wrapping at
// the end; names is the fleet's nodeNames. A stripe that does not wrap
// shares names' backing array, so a burst of striped filings costs no
// per-request name copies.
func stripe(names []string, start, width int) []string {
	if start+width <= len(names) {
		return names[start : start+width : start+width]
	}
	s := make([]string, width)
	for j := range s {
		s[j] = names[(start+j)%len(names)]
	}
	return s
}
