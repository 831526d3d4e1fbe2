package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare tool reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// judgement is the compare rule's finding for one (workload, metric).
type judgement struct {
	verdict              string
	winFrac              float64
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	changeQ1, changeQ3   float64
	pairs                int
}

// judge compares runs of a parent commit and a change, paired in order.
// The change improved a metric only if it wins at least nine tenths of
// the pairs (ties count for neither side) and the medians differ by more
// than the parent's interquartile range. Otherwise, with a bound (a share
// of the parent's median), it regressed when its median is worse by more
// than the bound, and it is unresolved when the parent's own spread is
// wider than the bound, unless every change run reads better than every
// parent run. Without a bound (per-layer metrics) the mirror of the
// improvement rule finds a regression, and a median difference within
// the parent's spread is unchanged.
func judge(parent, change []float64, higherBetter bool, bound float64) judgement {
	j := judgement{pairs: min(len(parent), len(change))}
	if j.pairs == 0 {
		j.verdict = "no data"
		return j
	}
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	wins, losses := 0, 0
	for i := 0; i < j.pairs; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	j.winFrac = float64(wins) / float64(j.pairs)
	j.parentMed, j.changeMed = median(parent), median(change)
	j.parentQ1, j.parentQ3 = quartiles(parent)
	j.changeQ1, j.changeQ3 = quartiles(change)
	iqr := j.parentQ3 - j.parentQ1
	gain := sign * (j.changeMed - j.parentMed)
	switch {
	case j.winFrac >= 0.9 && gain > iqr:
		j.verdict = "improved"
	case bound == 0:
		switch {
		case float64(losses)/float64(j.pairs) >= 0.9 && -gain > iqr:
			j.verdict = "regressed"
		case math.Abs(gain) <= iqr:
			j.verdict = "unchanged"
		default:
			j.verdict = "unresolved"
		}
	default:
		scale := math.Abs(j.parentMed)
		if scale == 0 {
			scale = math.SmallestNonzeroFloat64
		}
		allBetter := sign*(extreme(change, -sign)-extreme(parent, sign)) > 0
		switch {
		case iqr/scale > bound && !allBetter:
			j.verdict = "unresolved"
		case -gain/scale > bound:
			j.verdict = "regressed"
		default:
			j.verdict = "unchanged"
		}
	}
	return j
}

// extreme returns the largest of xs for dir > 0 and the smallest for
// dir < 0.
func extreme(xs []float64, dir float64) float64 {
	e := xs[0]
	for _, x := range xs[1:] {
		if dir*(x-e) > 0 {
			e = x
		}
	}
	return e
}

// runsOf holds one side's results: per workload, each metric's values in
// file order, and the operations that failed.
type runsOf struct {
	values map[string]map[string][]float64
	failed map[string]int
}

func readRuns(path string) (runsOf, error) {
	r := runsOf{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return r, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.values[rec.Workload] == nil {
			r.values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			r.values[rec.Workload][name] = append(r.values[rec.Workload][name], m.Value)
		}
		r.failed[rec.Workload] += rec.Failed
	}
	return r, sc.Err()
}

// compareFiles applies judge to every (workload, metric) that both results
// files hold and prints one row per pair, end-to-end metrics first.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	type rule struct {
		name   string
		higher bool
		bound  float64
	}
	var rules []rule
	for _, m := range spec.EndToEnd {
		rules = append(rules, rule{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range spec.PerLayer {
		rules = append(rules, rule{m.Name, m.Better == "higher", 0})
	}
	var names []string
	for wl := range parent.values {
		if change.values[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-28s %5s %-34s %-34s %5s  %s\n",
		"workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range names {
		moreFailed := change.failed[wl] > parent.failed[wl]
		for _, r := range rules {
			p, c := parent.values[wl][r.name], change.values[wl][r.name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			j := judge(p, c, r.higher, r.bound)
			if moreFailed && j.verdict == "improved" {
				// A gain does not count when more operations fail.
				j.verdict = "unresolved (more failures)"
			}
			fmt.Fprintf(w, "%-14s %-28s %5d %-34s %-34s %5.2f  %s\n", wl, r.name, j.pairs,
				fmt.Sprintf("%.6g [%.6g, %.6g]", j.parentMed, j.parentQ1, j.parentQ3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", j.changeMed, j.changeQ1, j.changeQ3),
				j.winFrac, j.verdict)
		}
		fmt.Fprintf(w, "%-14s failed operations: parent %d, change %d\n", wl, parent.failed[wl], change.failed[wl])
	}
	return nil
}
