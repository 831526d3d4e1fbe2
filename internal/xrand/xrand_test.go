package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := Split(7, "sched")
	b := Split(7, "workload")
	c := Split(7, "sched")
	if a.Uint64() == b.Uint64() {
		t.Error("streams with different labels should differ")
	}
	a2 := Split(7, "sched")
	_ = c
	first := a2.Uint64()
	want := Split(7, "sched").Uint64()
	if first != want {
		t.Error("Split is not stable for identical (seed, label)")
	}
}

func TestSplitN(t *testing.T) {
	a := SplitN(7, "core", 0)
	b := SplitN(7, "core", 1)
	if a.Uint64() == b.Uint64() {
		t.Error("SplitN with different indices should differ")
	}
	x := SplitN(7, "core", 3).Uint64()
	y := SplitN(7, "core", 3).Uint64()
	if x != y {
		t.Error("SplitN is not stable")
	}
}

func TestExpMean(t *testing.T) {
	r := New(1)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Errorf("Exp mean = %v, want ~5.0", mean)
	}
}

// TestLogNormalMoments checks the draws the service model makes:
// LogNormalParams once, then LogNormalMS per draw.
func TestLogNormalMoments(t *testing.T) {
	r := New(2)
	mu, sigma := LogNormalParams(10, 0.5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.LogNormalMS(mu, sigma)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	cv := math.Sqrt(variance) / mean
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("LogNormal mean = %v, want ~10", mean)
	}
	if math.Abs(cv-0.5) > 0.05 {
		t.Errorf("LogNormal cv = %v, want ~0.5", cv)
	}
}

func TestLogNormalZeroMean(t *testing.T) {
	r := New(3)
	if v := r.LogNormalMS(LogNormalParams(0, 0.5)); v != 0 {
		t.Errorf("LogNormalMS(LogNormalParams(0, _)) = %v, want 0", v)
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto below minimum: %v", v)
		}
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	r := New(5)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedPick(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedPickPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedPick(nil) should panic")
		}
	}()
	New(1).WeightedPick(nil)
}

func TestBoolProbability(t *testing.T) {
	r := New(6)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bool(0.25) hit rate = %v", p)
	}
}

func TestJitterBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Jitter(10, 0.2)
			if v < 8 || v > 12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(7)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntNRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		if v := r.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
		if v := r.Int64N(7); v < 0 || v >= 7 {
			t.Fatalf("Int64N out of range: %d", v)
		}
	}
}
