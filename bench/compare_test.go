package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeNineOfTenWins(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	change := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 105} // one loss
	j := judge(parent, change, false, 0.1)
	if j.verdict != "improved" || j.winFrac != 0.9 {
		t.Fatalf("9/10 wins: %+v", j)
	}
	change[8] = 120 // two losses: 8/10 is not enough
	if j := judge(parent, change, false, 0.1); j.verdict == "improved" {
		t.Fatalf("8/10 wins judged improved: %+v", j)
	}
}

func TestJudgeTie(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	j := judge(xs, xs, true, 0.1)
	if j.verdict != "unchanged" || j.winFrac != 0 {
		t.Fatalf("tie: %+v", j)
	}
	if j := judge(xs, xs, true, 0); j.verdict != "unchanged" {
		t.Fatalf("unbounded tie: %+v", j)
	}
}

func TestJudgeSpreadWiderThanBound(t *testing.T) {
	parent := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	change := []float64{110, 90, 130, 70, 100, 140, 60, 120, 80, 105}
	if j := judge(parent, change, false, 0.1); j.verdict != "unresolved" {
		t.Fatalf("wide spread: %+v", j)
	}
}

func TestJudgeRegression(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	change := make([]float64, len(parent))
	for i, p := range parent {
		change[i] = p * 1.2
	}
	if j := judge(parent, change, false, 0.1); j.verdict != "regressed" {
		t.Fatalf("20%% slower: %+v", j)
	}
	if j := judge(parent, change, true, 0.1); j.verdict != "improved" {
		t.Fatalf("20%% higher, higher better: %+v", j)
	}
	if j := judge(parent, change, false, 0); j.verdict != "regressed" {
		t.Fatalf("unbounded 20%% slower: %+v", j)
	}
	small := make([]float64, len(parent))
	for i, p := range parent {
		small[i] = p * 1.05
	}
	if j := judge(parent, small, false, 0.1); j.verdict != "unchanged" {
		t.Fatalf("5%% slower within a 10%% bound: %+v", j)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end":[{"name":"op_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"decode.events","unit":"count","better":"higher"}]}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale float64) string {
		p := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			o := output{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"op_ms": {Value: (100 + float64(i%3)) * scale, Unit: "ms"}}}
			if err := appendRecord(p, record{Workload: "fleet", Seed: uint64(i), output: o}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	var out bytes.Buffer
	if err := compareFiles(&out, specPath, write("p.jsonl", 1), write("c.jsonl", 0.8)); err != nil {
		t.Fatal(err)
	}
	row := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "op_ms") {
			row = l
		}
	}
	if !strings.HasSuffix(row, "improved") {
		t.Fatalf("compare output:\n%s", out.String())
	}
}
