package metrics_test

import (
	"fmt"

	"exist/internal/metrics"
)

func ExampleWeightMatch() {
	// Two function-occurrence histograms: the exhaustive reference and a
	// sampled window that saw the same two hot functions but missed a
	// cold one.
	reference := map[int32]int64{1: 50, 2: 40, 3: 10}
	sampled := map[int32]int64{1: 55, 2: 45}
	fmt.Printf("%.2f\n", metrics.WeightMatch(reference, sampled))
	// Output: 0.90
}

func ExamplePercentile() {
	lat := []float64{12, 15, 11, 90, 13, 14, 12, 16, 13, 12}
	fmt.Printf("p50=%v p90=%v\n", metrics.Percentile(lat, 50), metrics.Percentile(lat, 90))
	// Output: p50=13 p90=16
}
