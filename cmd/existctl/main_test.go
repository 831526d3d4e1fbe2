package main

import (
	"math"
	"strings"
	"testing"

	"exist/internal/coverage"
)

func TestCheckFlags(t *testing.T) {
	ok := map[string]float64{"loss": 0.2, "put-fail": 0}
	cases := []struct {
		name         string
		nodes, cores int
		purpose      string
		probs        map[string]float64
		want         coverage.Purpose
		err          string // a substring of the error; empty: valid
	}{
		{"defaults", 10, 8, "anomaly", nil, coverage.PurposeAnomaly, ""},
		{"profiling", 1, 1, "profiling", ok, coverage.PurposeProfiling, ""},
		{"probability bounds", 4, 8, "anomaly", map[string]float64{"loss": 1, "stall": 0}, coverage.PurposeAnomaly, ""},
		{"no nodes", 0, 8, "anomaly", ok, 0, "-nodes 0"},
		{"negative nodes", -3, 8, "anomaly", ok, 0, "-nodes -3"},
		{"no cores", 10, 0, "anomaly", ok, 0, "-cores 0"},
		{"unknown purpose", 10, 8, "bogus", ok, 0, `-purpose "bogus"`},
		{"empty purpose", 10, 8, "", ok, 0, `-purpose ""`},
		{"loss above 1", 10, 8, "anomaly", map[string]float64{"loss": 1.5}, 0, "-loss 1.5"},
		{"negative probability", 10, 8, "anomaly", map[string]float64{"gray-prob": -0.1}, 0, "-gray-prob -0.1"},
		{"NaN probability", 10, 8, "anomaly", map[string]float64{"stall": math.NaN()}, 0, "-stall NaN"},
		{"first bad flag by name", 10, 8, "anomaly", map[string]float64{"truncate": 2, "corrupt": 3}, 0, "-corrupt 3"},
	}
	for _, c := range cases {
		got, err := checkFlags(c.nodes, c.cores, c.purpose, c.probs)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.err)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error %q spans several lines", c.name, err)
		case err == nil && got != c.want:
			t.Errorf("%s: purpose %v, want %v", c.name, got, c.want)
		}
	}
}
