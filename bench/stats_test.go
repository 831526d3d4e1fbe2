package main

import (
	"math"
	"testing"
)

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0, 2.2, 8.8}, 2.2, 8.8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99.9); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %v, want 999", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestMixSeparatesStreams(t *testing.T) {
	seen := map[uint64]bool{}
	for s := uint64(0); s < 4; s++ {
		for l := uint64(0); l < 4; l++ {
			v := mix(s, l)
			if seen[v] {
				t.Fatalf("mix(%d, %d) collides", s, l)
			}
			seen[v] = true
		}
	}
	if mix(1, 2, 3) == mix(1, 3, 2) {
		t.Error("mix ignores label order")
	}
}
