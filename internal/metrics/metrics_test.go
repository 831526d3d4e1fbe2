package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"exist/internal/binary"
	"exist/internal/trace"
)

func ev(block, target int, taken bool) trace.Event {
	return trace.Event{Block: binary.BlockID(block), Target: binary.BlockID(target),
		Kind: binary.TermCond, Taken: taken}
}

func TestPathAccuracyPerfect(t *testing.T) {
	gt := map[int32][]trace.Event{1: {ev(1, 2, true), ev(2, 3, false), ev(3, 1, true)}}
	dec := map[int32][]trace.Event{1: {ev(1, 2, true), ev(2, 3, false), ev(3, 1, true)}}
	s := PathAccuracy(gt, dec)
	if s.Accuracy != 1 || s.Spurious != 0 || s.Matched != 3 {
		t.Fatalf("perfect match scored %+v", s)
	}
}

func TestPathAccuracyWithGaps(t *testing.T) {
	gt := map[int32][]trace.Event{1: {ev(1, 2, true), ev(2, 3, false), ev(3, 1, true), ev(1, 4, false)}}
	dec := map[int32][]trace.Event{1: {ev(1, 2, true), ev(1, 4, false)}} // middle lost
	s := PathAccuracy(gt, dec)
	if s.Matched != 2 || s.Spurious != 0 {
		t.Fatalf("gap match scored %+v", s)
	}
	if s.Accuracy != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", s.Accuracy)
	}
}

func TestPathAccuracySpurious(t *testing.T) {
	gt := map[int32][]trace.Event{1: {ev(1, 2, true)}}
	dec := map[int32][]trace.Event{1: {ev(9, 9, true), ev(1, 2, true)}, 2: {ev(5, 5, false)}}
	s := PathAccuracy(gt, dec)
	if s.Matched != 1 {
		t.Fatalf("matched = %d", s.Matched)
	}
	if s.Spurious != 2 {
		t.Fatalf("spurious = %d, want 2 (one bad event + one unknown thread)", s.Spurious)
	}
}

func TestPathAccuracyEmptyTruth(t *testing.T) {
	s := PathAccuracy(map[int32][]trace.Event{}, map[int32][]trace.Event{})
	if s.Accuracy != 0 || s.Truth != 0 {
		t.Fatalf("empty comparison scored %+v", s)
	}
}

func TestWeightMatchIdentity(t *testing.T) {
	h := map[int32]int64{1: 10, 2: 30, 5: 60}
	if acc := WeightMatch(h, h); acc != 1 {
		t.Fatalf("identity weight match = %v", acc)
	}
	// Scaling one histogram must not matter.
	h2 := map[int32]int64{1: 100, 2: 300, 5: 600}
	if acc := WeightMatch(h, h2); math.Abs(acc-1) > 1e-12 {
		t.Fatalf("scaled weight match = %v", acc)
	}
}

func TestWeightMatchDisjoint(t *testing.T) {
	a := map[int32]int64{1: 10}
	b := map[int32]int64{2: 10}
	if acc := WeightMatch(a, b); acc != 0 {
		t.Fatalf("disjoint weight match = %v, want 0 (the paper's all-missed worst case)", acc)
	}
}

func TestWeightMatchPartial(t *testing.T) {
	a := map[int32]int64{1: 50, 2: 50}
	b := map[int32]int64{1: 50}
	// err = |0.5-1| + |0.5-0| = 1; acc = (2-1)/2 = 0.5
	if acc := WeightMatch(a, b); math.Abs(acc-0.5) > 1e-12 {
		t.Fatalf("partial weight match = %v, want 0.5", acc)
	}
	// String keys and float weights score the same histograms alike.
	fa := map[string]float64{"f1": 50, "f2": 50}
	fb := map[string]float64{"f1": 50}
	if acc := WeightMatch(fa, fb); acc != WeightMatch(a, b) {
		t.Fatalf("string-keyed weight match = %v, want %v", acc, WeightMatch(a, b))
	}
}

func TestWeightMatchEmpty(t *testing.T) {
	if acc := WeightMatch[int32, int64](nil, nil); acc != 1 {
		t.Fatalf("both-empty = %v, want 1", acc)
	}
	if acc := WeightMatch(map[int32]int64{1: 1}, nil); acc != 0 {
		t.Fatalf("one-empty = %v, want 0", acc)
	}
}

// Property: weight match is symmetric and within [0,1].
func TestWeightMatchProperties(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a := map[int32]int64{}
		b := map[int32]int64{}
		for i, v := range av {
			a[int32(i%7)] += int64(v)
		}
		for i, v := range bv {
			b[int32(i%7)] += int64(v)
		}
		x, y := WeightMatch(a, b), WeightMatch(b, a)
		return math.Abs(x-y) < 1e-9 && x >= 0 && x <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {50, 3}, {100, 5}, {99, 5},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestSummarize(t *testing.T) {
	var samples []float64
	for i := 1; i <= 1000; i++ {
		samples = append(samples, float64(i))
	}
	s := Summarize(samples)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.P999 != 999 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-500.5) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestCDF(t *testing.T) {
	samples := []float64{1, 2, 3, 4}
	pts := CDF(samples, []float64{0.5, 2, 10})
	want := []float64{0, 0.5, 1}
	for i, p := range pts {
		if p.F != want[i] {
			t.Fatalf("CDF point %d = %v, want %v", i, p.F, want[i])
		}
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestUptime(t *testing.T) {
	// Continuous renewal: lease granted at 0 for 2, renewed at 1 for 2
	// more, run ends at 3 — fully covered, no gaps.
	var u Uptime
	u.Extend(0, 2)
	u.Extend(1, 3)
	if f := u.Fraction(3); f != 1 {
		t.Fatalf("continuous coverage = %v, want 1", f)
	}
	if u.Gaps() != 0 {
		t.Fatalf("gaps = %d", u.Gaps())
	}

	// Lapse: covered [0,2), hole [2,5), re-acquired [5,8), end 10.
	var v Uptime
	v.Extend(0, 2)
	v.Extend(5, 8)
	if f := v.Fraction(10); f != 0.5 {
		t.Fatalf("lapsed coverage = %v, want 0.5", f)
	}
	if v.Gaps() != 2 {
		// One lapse at 2, a second when coverage runs out at 8.
		t.Fatalf("gaps = %d, want 2", v.Gaps())
	}

	// Late first acquisition: hole [0,4) is uncovered but not a lapse.
	var w Uptime
	w.Extend(4, 10)
	if f := w.Fraction(10); f != 0.6 {
		t.Fatalf("late coverage = %v, want 0.6", f)
	}
	if w.Gaps() != 0 {
		t.Fatalf("gaps = %d, want 0", w.Gaps())
	}

	var z Uptime
	if f := z.Fraction(0); f != 0 {
		t.Fatalf("empty fraction = %v", f)
	}
}
