package main

import (
	"reflect"
	"testing"
)

// TestRowMismatch pins the -benchcheck row contract: a baseline row the
// binary no longer measures, and a measured row the baseline lacks, are
// both reported by name.
func TestRowMismatch(t *testing.T) {
	base := map[string]benchResult{"decode_hot": {}, "old_hot": {}, "tracer_hot": {}}
	measured := map[string]benchResult{"decode_hot": {}, "tracer_hot": {}, "new_hot": {}, "a_hot": {}}
	unmeasured, unrecorded := rowMismatch(base, measured)
	if !reflect.DeepEqual(unmeasured, []string{"old_hot"}) {
		t.Errorf("unmeasured = %v, want [old_hot]", unmeasured)
	}
	if !reflect.DeepEqual(unrecorded, []string{"a_hot", "new_hot"}) {
		t.Errorf("unrecorded = %v, want [a_hot new_hot]", unrecorded)
	}
	if u, r := rowMismatch(base, base); u != nil || r != nil {
		t.Errorf("identical rows reported mismatches: %v, %v", u, r)
	}
}

// TestMedianRows pins the -benchcheck noise filter: each field gates on
// its own median across runs, so one outlier pass does not move a row.
func TestMedianRows(t *testing.T) {
	runs := []map[string]benchResult{
		{"a_hot": {NsPerOp: 10, AllocsPerOp: 8, BytesPerOp: 100, MBPerS: 50}, "b_hot": {AllocsPerOp: 3}},
		{"a_hot": {NsPerOp: 90, AllocsPerOp: 10, BytesPerOp: 300, MBPerS: 5}, "b_hot": {AllocsPerOp: 1}},
		{"a_hot": {NsPerOp: 20, AllocsPerOp: 8, BytesPerOp: 200, MBPerS: 40}, "b_hot": {AllocsPerOp: 2}},
	}
	got := medianRows(runs)
	want := map[string]benchResult{
		"a_hot": {NsPerOp: 20, AllocsPerOp: 8, BytesPerOp: 200, MBPerS: 40},
		"b_hot": {AllocsPerOp: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("medianRows = %+v, want %+v", got, want)
	}
}
