// Package coverage implements EXIST's Repetition-aware Coverage Optimizer
// (RCO, §3.4 of the paper): the cluster-level component that decides *how
// long* to trace (temporal decider), *which repetitions* of an application
// to trace (spatial sampler), and how to merge per-worker traces into an
// augmented result (redundancy removal plus gap complementing).
package coverage

import (
	"slices"
	"sort"

	"exist/internal/decode"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// Complexity carries the three signals the temporal decider weighs
// (§3.4): operator-assigned priority, binary size, and the application's
// stability history.
type Complexity struct {
	// Priority is the manager-defined priority, 1 (lowest) to 10.
	Priority int
	// BinaryBytes is the size of the application binary.
	BinaryBytes uint64
	// PastIssues counts previously recorded stability incidents.
	PastIssues int
	// RefOverheadPct, when known, is the pre-measured reference tracing
	// overhead on this application; the decider shortens the window for
	// workloads that are more sensitive.
	RefOverheadPct float64
}

// Period bounds from the paper's implementation (§4).
const (
	MinPeriod = 100 * simtime.Millisecond
	MaxPeriod = 2 * simtime.Second
)

// DecidePeriod maps application complexity to a tracing period: more
// complex programs need longer windows to cover their execution. The
// weighted sum uses priority (0.5), binary size (0.3), and stability
// history (0.2), then shrinks for overhead-sensitive workloads.
func DecidePeriod(c Complexity) simtime.Duration {
	prio := clamp01(float64(c.Priority) / 10)
	size := clamp01(float64(c.BinaryBytes) / (64 << 20)) // 64 MB ~ very large binary
	issues := clamp01(float64(c.PastIssues) / 10)
	score := 0.5*prio + 0.3*size + 0.2*issues
	period := MinPeriod + simtime.Duration(score*float64(MaxPeriod-MinPeriod))
	if c.RefOverheadPct > 1 {
		// Overhead-sensitive application: halve the window.
		period /= 2
	}
	if period < MinPeriod {
		period = MinPeriod
	}
	if period > MaxPeriod {
		period = MaxPeriod
	}
	// Round to the 100 ms grid operators configure.
	grid := 100 * simtime.Millisecond
	period = (period / grid) * grid
	if period < MinPeriod {
		period = MinPeriod
	}
	return period
}

// Purpose is why a trace is requested; it changes the sampling policy.
type Purpose int

const (
	// PurposeAnomaly: a performance anomaly is being diagnosed — all
	// involved entities are traced, since abnormal behaviours are
	// distinct.
	PurposeAnomaly Purpose = iota
	// PurposeProfiling: routine software profiling — repetitions behave
	// alike, so a sample suffices.
	PurposeProfiling
)

// Repetition is one deployed instance (worker) of an application.
type Repetition struct {
	// Node is the hosting node.
	Node string
	// Index is the hosting node's dense index, the value a NodeSet holds.
	Index int32
	// Anomalous marks instances implicated in the anomaly under
	// diagnosis.
	Anomalous bool
	// Down marks instances on failed (lease-expired) nodes; the sampler
	// never selects them.
	Down bool
}

// SampleSpec parameterizes the spatial sampler.
type SampleSpec struct {
	// Purpose selects the policy.
	Purpose Purpose
	// Priority is the application priority (1-10); higher-priority
	// applications are traced more.
	Priority int
	// BaseFraction is the profiling sampling floor (default 0.1).
	BaseFraction float64
}

// SelectRepetitions returns the indices of repetitions to trace.
// Anomaly diagnosis traces every anomalous entity; profiling samples by
// priority and deployment density, with a deployment threshold
// guaranteeing at least one traced instance even for applications
// deployed once.
func SelectRepetitions(reps []Repetition, spec SampleSpec, rng *xrand.Rand) []int {
	if len(reps) == 0 {
		return nil
	}
	if spec.Purpose == PurposeAnomaly {
		var out []int
		for i, r := range reps {
			if r.Anomalous {
				out = append(out, i)
			}
		}
		if len(out) == 0 {
			// Nothing flagged: fall back to tracing everything involved.
			for i := range reps {
				out = append(out, i)
			}
		}
		return out
	}
	base := spec.BaseFraction
	if base <= 0 {
		base = 0.1
	}
	// Higher priority and broader deployment raise the fraction; the
	// deployment threshold keeps n >= 1.
	frac := base * (1 + float64(spec.Priority)/5)
	if len(reps) >= 100 {
		frac *= 1.5
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(reps))*frac + 0.5)
	if n < 1 {
		n = 1
	}
	perm := rng.Perm(len(reps))[:n]
	sort.Ints(perm)
	return perm
}

// NodeSet is a set of dense node indices, kept as a sorted slice: the
// nodes one request has already traced. A request touches a handful of
// nodes, so the set is a few bytes with no hashing, and a request that
// traces a whole fleet still answers Has by binary search.
type NodeSet []int32

// Has reports whether node index i is in the set.
func (s NodeSet) Has(i int32) bool {
	_, ok := slices.BinarySearch(s, i)
	return ok
}

// Add inserts node index i; adding a member is a no-op.
func (s *NodeSet) Add(i int32) {
	k, ok := slices.BinarySearch(*s, i)
	if !ok {
		*s = slices.Insert(*s, k, i)
	}
}

// SelectReplacements re-runs the spatial sampler after failure: it picks
// up to n replacement repetitions for lost sessions among instances that
// are healthy and not already traced for the request (used holds the
// Index of every traced instance). Selection is random via rng so the
// replacement choice carries no placement bias; indices come back sorted.
// When fewer candidates than n remain, all of them are returned — the
// request degrades to partial coverage instead of failing.
func SelectReplacements(reps []Repetition, used NodeSet, n int, rng *xrand.Rand) []int {
	if n <= 0 {
		return nil
	}
	var cands []int
	for i, r := range reps {
		if !r.Down && !used.Has(r.Index) {
			cands = append(cands, i)
		}
	}
	if len(cands) <= n {
		return cands
	}
	perm := rng.Perm(len(cands))[:n]
	out := make([]int, 0, n)
	for _, p := range perm {
		out = append(out, cands[p])
	}
	sort.Ints(out)
	return out
}

// Augmented is the cluster-level merge of per-worker reconstructions:
// redundancy removed, gaps complemented (§3.4, Figure 20).
type Augmented struct {
	// Merged is the merged profile: the workers' function histograms,
	// category and memory-access profiles and counters summed, their
	// Errors and PTWrites appended in worker order. It carries no
	// per-thread streams (thread IDs are only unique per machine), so its
	// ByThread is empty.
	Merged *decode.Result
	// Workers is the number of inputs merged.
	Workers int
	// DistinctFuncs is the union function coverage.
	DistinctFuncs int
	// NewFuncsPerWorker traces the marginal benefit curve: functions
	// first covered by the k-th worker.
	NewFuncsPerWorker []int
}

// Merge combines per-worker reconstructions of the same program.
func Merge(results []*decode.Result) *Augmented {
	a := &Augmented{Workers: len(results), NewFuncsPerWorker: make([]int, 0, len(results))}
	out := &decode.Result{FuncEntries: make(map[int32]int64)}
	for _, r := range results {
		newFuncs := 0
		for fn := range r.FuncEntries {
			if _, ok := out.FuncEntries[fn]; !ok {
				newFuncs++
			}
		}
		a.NewFuncsPerWorker = append(a.NewFuncsPerWorker, newFuncs)
		out.Merge(r)
	}
	a.Merged = out
	a.DistinctFuncs = len(out.FuncEntries)
	return a
}

// SimilarityCurve reports, for each worker count k (1..n), the fraction
// of the k-th worker's functions already covered by workers 1..k-1 — the
// redundancy that makes exhaustive tracing wasteful (Figure 12).
func SimilarityCurve(results []*decode.Result) []float64 {
	seen := map[int32]bool{}
	out := make([]float64, 0, len(results))
	for _, r := range results {
		if len(r.FuncEntries) == 0 {
			out = append(out, 0)
			continue
		}
		dup := 0
		for fn := range r.FuncEntries {
			if seen[fn] {
				dup++
			}
		}
		out = append(out, float64(dup)/float64(len(r.FuncEntries)))
		for fn := range r.FuncEntries {
			seen[fn] = true
		}
	}
	return out
}

// CoverageCurve reports cumulative distinct-function coverage (relative
// to totalFuncs) after each worker.
func CoverageCurve(results []*decode.Result, totalFuncs int) []float64 {
	seen := map[int32]bool{}
	out := make([]float64, 0, len(results))
	for _, r := range results {
		for fn := range r.FuncEntries {
			seen[fn] = true
		}
		f := 0.0
		if totalFuncs > 0 {
			f = float64(len(seen)) / float64(totalFuncs)
		}
		out = append(out, f)
	}
	return out
}

// clamp01 clips v to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
