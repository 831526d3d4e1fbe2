package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"exist/internal/hotbench/rows"
)

// TestRowMismatch pins the -benchcheck row contract: a baseline row the
// binary no longer measures, and a measured row the baseline lacks, are
// both reported by name.
func TestRowMismatch(t *testing.T) {
	base := map[string]rows.Result{"decode_hot": {}, "old_hot": {}, "tracer_hot": {}}
	measured := map[string]rows.Result{"decode_hot": {}, "tracer_hot": {}, "new_hot": {}, "a_hot": {}}
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
	runs := []map[string]rows.Result{
		{"a_hot": {NsPerOp: 10, AllocsPerOp: 8, BytesPerOp: 100, MBPerS: 50}, "b_hot": {AllocsPerOp: 3}},
		{"a_hot": {NsPerOp: 90, AllocsPerOp: 10, BytesPerOp: 300, MBPerS: 5}, "b_hot": {AllocsPerOp: 1}},
		{"a_hot": {NsPerOp: 20, AllocsPerOp: 8, BytesPerOp: 200, MBPerS: 40}, "b_hot": {AllocsPerOp: 2}},
	}
	got := medianRows(runs)
	want := map[string]rows.Result{
		"a_hot": {NsPerOp: 20, AllocsPerOp: 8, BytesPerOp: 200, MBPerS: 40},
		"b_hot": {AllocsPerOp: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("medianRows = %+v, want %+v", got, want)
	}
}

// TestRowsMatchHarness checks, without measuring anything, that the row
// table and the committed baseline file name the same rows and that each
// row's pre-PR baseline is the one the file records, so a renamed or
// dropped row fails go test and not only -benchcheck.
func TestRowsMatchHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_harness.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		HotPaths map[string]rows.Result `json:"hot_paths"`
		PrePR    map[string]rows.Result `json:"pre_pr_baseline"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	table := map[string]rows.Result{}
	for _, row := range rows.All() {
		table[row.Name] = rows.Result{}
	}
	if unmeasured, unrecorded := rowMismatch(base.HotPaths, table); unmeasured != nil || unrecorded != nil {
		t.Errorf("BENCH_harness.json rows missing from the table: %v; table rows missing from the file: %v", unmeasured, unrecorded)
	}
	if prePR := rows.PrePR(); !reflect.DeepEqual(prePR, base.PrePR) {
		t.Errorf("table pre-PR baselines %+v, BENCH_harness.json records %+v", prePR, base.PrePR)
	}
}
