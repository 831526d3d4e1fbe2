package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"exist/internal/binary"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"exist/internal/sched.(*Machine).Run":                         "sched",
		"exist/internal/cluster.(*Cluster).runParallel.func1":         "cluster",
		"exist/internal/parallel.ForEach":                             "other",
		"exist/internal/coverage.Merge[go.shape.*exist/internal/x.T]": "coverage",
		"exist/bench.main":                                            "other",
		"runtime.mallocgc":                                            "runtime",
		"internal/runtime/maps.(*Map).Get":                            "runtime",
		"sort.Slice":                                                  "std",
		"compress/flate.(*compressor).step":                           "std",
		"type:.eq.[8]uint8":                                           "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// cpuShares reads a real Go CPU profile: the shares sum to one and the
// package that did the work shows up.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		binary.Synthesize(binary.DefaultSpec("busy", 1))
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if shares["binary"] == 0 {
		t.Errorf("no binary share: %v", shares)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
