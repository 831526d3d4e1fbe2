package coverage

import (
	"slices"
	"testing"

	"exist/internal/decode"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

func TestDecidePeriodBounds(t *testing.T) {
	lo := DecidePeriod(Complexity{})
	if lo != MinPeriod {
		t.Fatalf("trivial app period = %v, want %v", lo, MinPeriod)
	}
	hi := DecidePeriod(Complexity{Priority: 10, BinaryBytes: 256 << 20, PastIssues: 50})
	if hi != MaxPeriod {
		t.Fatalf("complex app period = %v, want %v", hi, MaxPeriod)
	}
}

func TestDecidePeriodMonotonic(t *testing.T) {
	a := DecidePeriod(Complexity{Priority: 2, BinaryBytes: 1 << 20})
	b := DecidePeriod(Complexity{Priority: 8, BinaryBytes: 32 << 20, PastIssues: 5})
	if b <= a {
		t.Fatalf("more complex app got shorter period: %v vs %v", a, b)
	}
}

func TestDecidePeriodGridAndSensitivity(t *testing.T) {
	p := DecidePeriod(Complexity{Priority: 7, BinaryBytes: 16 << 20, PastIssues: 3})
	if p%(100*simtime.Millisecond) != 0 {
		t.Fatalf("period %v not on the 100ms grid", p)
	}
	sensitive := DecidePeriod(Complexity{Priority: 7, BinaryBytes: 16 << 20, PastIssues: 3, RefOverheadPct: 2.5})
	if sensitive >= p {
		t.Fatalf("overhead-sensitive app should get a shorter window: %v vs %v", sensitive, p)
	}
	if sensitive < MinPeriod {
		t.Fatalf("period %v below floor", sensitive)
	}
}

func TestSelectRepetitionsAnomaly(t *testing.T) {
	reps := []Repetition{{Node: "a"}, {Node: "b", Anomalous: true}, {Node: "c", Anomalous: true}}
	got := SelectRepetitions(reps, SampleSpec{Purpose: PurposeAnomaly}, xrand.New(1))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("anomaly selection = %v, want [1 2]", got)
	}
	// Nothing flagged: trace everything involved.
	reps2 := []Repetition{{Node: "a"}, {Node: "b"}}
	got2 := SelectRepetitions(reps2, SampleSpec{Purpose: PurposeAnomaly}, xrand.New(1))
	if len(got2) != 2 {
		t.Fatalf("unflagged anomaly selection = %v", got2)
	}
}

func TestSelectRepetitionsProfiling(t *testing.T) {
	reps := make([]Repetition, 40)
	lowPrio := SelectRepetitions(reps, SampleSpec{Purpose: PurposeProfiling, Priority: 1}, xrand.New(2))
	highPrio := SelectRepetitions(reps, SampleSpec{Purpose: PurposeProfiling, Priority: 10}, xrand.New(2))
	if len(highPrio) <= len(lowPrio) {
		t.Fatalf("priority must raise sampling: %d vs %d", len(lowPrio), len(highPrio))
	}
	if len(lowPrio) < 1 {
		t.Fatal("deployment threshold violated")
	}
	// Single deployment always traced.
	one := SelectRepetitions([]Repetition{{Node: "x"}}, SampleSpec{Purpose: PurposeProfiling, Priority: 1}, xrand.New(3))
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("single deployment selection = %v", one)
	}
	if SelectRepetitions(nil, SampleSpec{}, xrand.New(1)) != nil {
		t.Fatal("empty repetitions should yield nil")
	}
}

func TestSelectReplacements(t *testing.T) {
	reps := []Repetition{
		{Node: "a", Index: 0},             // already traced
		{Node: "b", Index: 1, Down: true}, // failed
		{Node: "c", Index: 2},             // candidate
		{Node: "d", Index: 3},             // candidate
		{Node: "e", Index: 4},             // candidate
	}
	used := NodeSet{0}

	// Fewer candidates than requested: all of them come back.
	all := SelectReplacements(reps, used, 10, xrand.New(1))
	if len(all) != 3 || all[0] != 2 || all[1] != 3 || all[2] != 4 {
		t.Fatalf("replacements = %v, want [2 3 4]", all)
	}
	// Down and used instances are never selected.
	for i := 0; i < 50; i++ {
		got := SelectReplacements(reps, used, 1, xrand.New(uint64(i)))
		if len(got) != 1 {
			t.Fatalf("want one replacement, got %v", got)
		}
		if r := reps[got[0]]; r.Down || used.Has(r.Index) {
			t.Fatalf("selected unusable repetition %+v", r)
		}
	}
	// Nothing healthy and untraced left: empty, not an error.
	if got := SelectReplacements(reps, NodeSet{0, 2, 3, 4}, 1, xrand.New(1)); len(got) != 0 {
		t.Fatalf("exhausted pool gave %v", got)
	}
	if got := SelectReplacements(reps, used, 0, xrand.New(1)); got != nil {
		t.Fatalf("n=0 gave %v", got)
	}
	// Deterministic for a fixed seed.
	a := SelectReplacements(reps, used, 2, xrand.New(7))
	b := SelectReplacements(reps, used, 2, xrand.New(7))
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("not deterministic: %v vs %v", a, b)
	}
}

func TestNodeSet(t *testing.T) {
	var s NodeSet
	for _, i := range []int32{7, 2, 9, 2, 0, 7} {
		s.Add(i)
	}
	if want := (NodeSet{0, 2, 7, 9}); !slices.Equal(s, want) {
		t.Fatalf("set = %v, want %v", s, want)
	}
	for _, i := range []int32{0, 2, 7, 9} {
		if !s.Has(i) {
			t.Fatalf("Has(%d) = false", i)
		}
	}
	for _, i := range []int32{-1, 1, 8, 10} {
		if s.Has(i) {
			t.Fatalf("Has(%d) = true", i)
		}
	}
	if (NodeSet(nil)).Has(0) {
		t.Fatal("empty set has a member")
	}
}

func mkResult(funcs ...int32) *decode.Result {
	r := &decode.Result{FuncEntries: map[int32]int64{}}
	for _, f := range funcs {
		r.FuncEntries[f] += 3
	}
	r.Events = int64(len(funcs))
	return r
}

func TestMergeAugmentation(t *testing.T) {
	a := Merge([]*decode.Result{mkResult(1, 2, 3), mkResult(2, 3, 4), mkResult(3, 4)})
	if a.Workers != 3 || a.DistinctFuncs != 4 {
		t.Fatalf("augmented = %+v", a)
	}
	want := []int{3, 1, 0}
	for i, w := range want {
		if a.NewFuncsPerWorker[i] != w {
			t.Fatalf("marginal coverage = %v, want %v", a.NewFuncsPerWorker, want)
		}
	}
	if a.Merged.FuncEntries[3] != 9 {
		t.Fatalf("merged histogram wrong: %v", a.Merged.FuncEntries)
	}
	if a.Merged.Events != 8 || len(a.Merged.ByThread()) != 0 {
		t.Fatalf("merged profile: %d events, %d streams; want 8 and none",
			a.Merged.Events, len(a.Merged.ByThread()))
	}
}

func TestSimilarityCurveRises(t *testing.T) {
	curve := SimilarityCurve([]*decode.Result{mkResult(1, 2, 3, 4), mkResult(1, 2, 3, 5), mkResult(1, 2, 3, 4)})
	if curve[0] != 0 {
		t.Fatalf("first worker similarity = %v, want 0", curve[0])
	}
	if curve[1] != 0.75 || curve[2] != 1.0 {
		t.Fatalf("similarity curve = %v", curve)
	}
}

func TestCoverageCurve(t *testing.T) {
	curve := CoverageCurve([]*decode.Result{mkResult(1, 2), mkResult(2, 3)}, 4)
	if curve[0] != 0.5 || curve[1] != 0.75 {
		t.Fatalf("coverage curve = %v", curve)
	}
	empty := CoverageCurve(nil, 0)
	if len(empty) != 0 {
		t.Fatal("empty inputs should yield empty curve")
	}
}
