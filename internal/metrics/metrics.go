// Package metrics provides the statistics used across experiments:
// percentile summaries, CDFs, slowdown arithmetic, and the two accuracy
// scores the paper uses — exact path matching against ground truth for
// benchmarks (§5.3 "degree of matching"), and Wall's weight matching over
// function occurrence histograms for long-running applications.
package metrics

import (
	"math"
	"sort"

	"exist/internal/trace"
)

// PathScore is the result of an exact path comparison.
type PathScore struct {
	// Truth is the number of ground-truth events.
	Truth int64
	// Decoded is the number of reconstructed events.
	Decoded int64
	// Matched is the number of reconstructed events that appear in the
	// ground truth in order.
	Matched int64
	// Spurious is Decoded - Matched: events the decoder invented. A
	// correct decoder yields zero; losses only shrink Matched.
	Spurious int64
	// Accuracy is Matched / Truth.
	Accuracy float64
}

// PathAccuracy scores a reconstruction against ground truth, per thread.
// The reconstruction of a lossy session is an ordered subsequence of the
// truth (whole segments go missing when a core was untraced or its buffer
// stopped); the score is the fraction of true events recovered.
func PathAccuracy(gt, dec map[int32][]trace.Event) PathScore {
	var s PathScore
	for tid, truth := range gt {
		s.Truth += int64(len(truth))
		decoded := dec[tid]
		s.Decoded += int64(len(decoded))
		i := 0
		for _, ev := range decoded {
			// Scan forward for the next occurrence of ev, but only
			// consume truth when it is found — a spurious decoded event
			// must not eat the remaining truth.
			j := i
			for j < len(truth) && !sameEvent(truth[j], ev) {
				j++
			}
			if j < len(truth) {
				s.Matched++
				i = j + 1
			}
		}
	}
	for tid, decoded := range dec {
		if _, ok := gt[tid]; !ok {
			s.Decoded += int64(len(decoded))
		}
	}
	s.Spurious = s.Decoded - s.Matched
	if s.Truth > 0 {
		s.Accuracy = float64(s.Matched) / float64(s.Truth)
	}
	return s
}

// sameEvent compares events ignoring the TID (already matched by map key).
func sameEvent(a, b trace.Event) bool {
	return a.Block == b.Block && a.Target == b.Target && a.Kind == b.Kind && a.Taken == b.Taken
}

// WeightMatch computes Wall's weight-matching accuracy between two
// function-occurrence histograms: each histogram is normalized to sum 1,
// the error is the L1 distance (maximum 2 when supports are disjoint), and
// the accuracy is (maxerror - error) / maxerror.
func WeightMatch(ref, got map[int32]int64) float64 {
	var refTotal, gotTotal float64
	for _, n := range ref {
		refTotal += float64(n)
	}
	for _, n := range got {
		gotTotal += float64(n)
	}
	if refTotal == 0 && gotTotal == 0 {
		return 1
	}
	if refTotal == 0 || gotTotal == 0 {
		return 0
	}
	// Accumulate the L1 error in sorted key order: float addition is not
	// associative, and map iteration order would otherwise make the last
	// ulp of the score vary from run to run.
	var err float64
	for _, fn := range sortedKeys(ref) {
		a := float64(ref[fn]) / refTotal
		b := float64(got[fn]) / gotTotal
		err += math.Abs(a - b)
	}
	for _, fn := range sortedKeys(got) {
		if _, ok := ref[fn]; !ok {
			err += float64(got[fn]) / gotTotal
		}
	}
	return (2 - err) / 2
}

// sortedKeys returns a histogram's keys in ascending order.
func sortedKeys(m map[int32]int64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Percentile returns the p-th percentile (0-100) of samples using
// nearest-rank on a sorted copy. It returns 0 for empty input.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	// The epsilon keeps exact ranks (e.g. 99.9% of 1000) from rounding up
	// through float error.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Summary is a standard latency/period summary.
type Summary struct {
	N                        int
	Mean                     float64
	P50, P75, P90, P99, P999 float64
	Max                      float64
}

// Summarize computes a Summary in one sort.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Summary{
		N:    len(s),
		Mean: Mean(s),
		P50:  percentileSorted(s, 50),
		P75:  percentileSorted(s, 75),
		P90:  percentileSorted(s, 90),
		P99:  percentileSorted(s, 99),
		P999: percentileSorted(s, 99.9),
		Max:  s[len(s)-1],
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	F float64
}

// CDF evaluates the empirical CDF of samples at the given xs (which need
// not be sorted).
func CDF(samples []float64, xs []float64) []CDFPoint {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := make([]CDFPoint, 0, len(xs))
	for _, x := range xs {
		i := sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1)))
		f := 0.0
		if len(s) > 0 {
			f = float64(i) / float64(len(s))
		}
		out = append(out, CDFPoint{X: x, F: f})
	}
	return out
}

// Uptime accumulates the total time a renewable claim was live — e.g.
// the fraction of a run during which some controller held a valid
// leader lease. Each Extend(now, until) call asserts the claim is live
// from now until `until`; a later Extend may renew (overlap) or leave a
// gap, and only covered time counts. All times are in the caller's unit
// (the control plane passes virtual seconds).
type Uptime struct {
	covered    float64
	validUntil float64
	last       float64
	gaps       int
}

// Extend marks the claim live on [now, until). Calls must have
// non-decreasing now; until below now is ignored.
func (u *Uptime) Extend(now, until float64) {
	u.advance(now)
	if until > u.validUntil {
		u.validUntil = until
	}
}

// advance accrues covered time up to now. A lapse is counted as one gap
// at the moment coverage runs out, however many times advance observes
// the hole afterwards.
func (u *Uptime) advance(now float64) {
	if now < u.last {
		now = u.last
	}
	switch {
	case u.validUntil >= now:
		u.covered += now - u.last
	case u.validUntil > u.last:
		u.covered += u.validUntil - u.last
		u.gaps++
	}
	u.last = now
}

// Fraction returns covered/end after accruing up to end: the fraction
// of [0, end] during which the claim was live. It returns 0 for a
// non-positive end.
func (u *Uptime) Fraction(end float64) float64 {
	if end <= 0 {
		return 0
	}
	u.advance(end)
	return u.covered / end
}

// Gaps returns how many times the claim lapsed before being renewed
// (coverage holes observed so far).
func (u *Uptime) Gaps() int { return u.gaps }
