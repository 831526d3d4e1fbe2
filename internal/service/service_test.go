package service

import (
	"testing"

	"exist/internal/metrics"
	"exist/internal/simtime"
)

// openLoop runs spec under Poisson arrivals at rate for dur and returns
// the run with its response-time summary.
func openLoop(spec ChainSpec, rate float64, dur simtime.Duration, ov []Overhead) (Result, metrics.Summary) {
	res := RunSchedule(spec, Poisson(spec.Seed, rate, dur), dur, 0, ov)
	return res, metrics.Summarize(res.RTms)
}

func TestOpenLoopLowLoad(t *testing.T) {
	spec := ComposePostChain(1)
	res, sum := openLoop(spec, InstanceRate(1e4), 4*simtime.Second, nil)
	if res.Completed < 300 || res.Completed > 500 {
		t.Fatalf("completed = %d at 100 rps for 4s", res.Completed)
	}
	if res.Dropped > 5 {
		t.Fatalf("dropped = %d at trivial load", res.Dropped)
	}
	// Idle RT is roughly the sum of service demands:
	// 3.8 + 7.6 + 3*3.8 = 22.8 ms mean-ish (Figure 16's oracle level).
	if sum.P50 < 10 || sum.P50 > 40 {
		t.Fatalf("p50 = %.2fms implausible for idle chain", sum.P50)
	}
}

func TestOpenLoopQueueingGrowsWithLoad(t *testing.T) {
	spec := ComposePostChain(2)
	_, low := openLoop(spec, InstanceRate(1e4), 4*simtime.Second, nil)
	_, high := openLoop(spec, InstanceRate(1e5), 4*simtime.Second, nil)
	if high.P99 <= low.P99*1.3 {
		t.Fatalf("p99 must grow with load: %.2f vs %.2f", low.P99, high.P99)
	}
}

func TestOverheadAmplification(t *testing.T) {
	// The Figure 3b phenomenon: ~2% single-tier overhead produces far
	// more than 2% tail degradation near saturation.
	spec := ComposePostChain(3)
	ov := []Overhead{{Tier: 1, Frac: 0.02, SpikeProb: 0.02, Spike: 4 * simtime.Millisecond}}
	_, base := openLoop(spec, InstanceRate(1e5), 8*simtime.Second, nil)
	_, traced := openLoop(spec, InstanceRate(1e5), 8*simtime.Second, ov)
	slow := traced.P99/base.P99 - 1
	if slow < 0.05 {
		t.Fatalf("tail amplification = %.3f, want >> 2%%", slow)
	}
	// And at low load the same overhead matters much less (relative to
	// the high-load amplification).
	_, baseLow := openLoop(spec, InstanceRate(1e4), 8*simtime.Second, nil)
	_, tracedLow := openLoop(spec, InstanceRate(1e4), 8*simtime.Second, ov)
	slowLow := tracedLow.P99/baseLow.P99 - 1
	if slowLow > slow {
		t.Fatalf("low-load slowdown %.3f exceeds high-load %.3f", slowLow, slow)
	}
}

func TestClosedLoopThroughputDegrades(t *testing.T) {
	spec := ComposePostChain(4)
	base := RunClosedLoop(spec, 48, 4*simtime.Second, nil)
	// 48 clients saturate a ~1.1e3 rps instance.
	if base.ThroughputRPS < 500 {
		t.Fatalf("closed loop throughput = %.0f implausibly low", base.ThroughputRPS)
	}
	traced := RunClosedLoop(spec, 48, 4*simtime.Second, []Overhead{
		{Tier: 1, Frac: 0.05, SpikeProb: 0.05, Spike: 4 * simtime.Millisecond},
	})
	loss := 1 - traced.ThroughputRPS/base.ThroughputRPS
	if loss <= 0.02 {
		t.Fatalf("throughput loss = %.4f, want noticeable for 5%% inflation", loss)
	}
	if loss > 0.5 {
		t.Fatalf("throughput loss = %.4f implausibly high", loss)
	}
}

func TestDeterminism(t *testing.T) {
	spec := ComposePostChain(5)
	a, as := openLoop(spec, 500, 1*simtime.Second, nil)
	b, bs := openLoop(spec, 500, 1*simtime.Second, nil)
	if a.Completed != b.Completed || as.P99 != bs.P99 {
		t.Fatal("open-loop runs are not deterministic")
	}
}

func TestOverheadOnInvalidTierIgnored(t *testing.T) {
	spec := ComposePostChain(6)
	res, _ := openLoop(spec, 200, 500*simtime.Millisecond, []Overhead{{Tier: 99, Frac: 10}})
	if res.Completed == 0 {
		t.Fatal("run with out-of-range overhead tier failed")
	}
}

func TestInstanceRate(t *testing.T) {
	if InstanceRate(1e4) != 100 {
		t.Fatalf("InstanceRate(1e4) = %v", InstanceRate(1e4))
	}
}

func TestPoissonSortedBeforeDur(t *testing.T) {
	dur := 2 * simtime.Second
	arr := Poisson(7, 500, dur)
	if len(arr) < 800 || len(arr) > 1200 {
		t.Fatalf("%d arrivals at 500 rps over 2s", len(arr))
	}
	for i, a := range arr {
		if a.At < 0 || a.At >= dur {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, a.At, dur)
		}
		if i > 0 && a.At < arr[i-1].At {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, a.At, i-1, arr[i-1].At)
		}
	}
}

func TestScheduleRunsSimultaneousArrivals(t *testing.T) {
	at := 10 * simtime.Millisecond
	res := RunSchedule(ComposePostChain(8), []Arrival{{At: at, Client: 0}, {At: at, Client: 1}}, simtime.Second, 2, nil)
	if res.Completed != 2 || res.Dropped != 0 {
		t.Fatalf("completed %d, dropped %d; want both arrivals at %v to run", res.Completed, res.Dropped, at)
	}
	for ci, rts := range res.ByClient {
		if len(rts) != 1 {
			t.Fatalf("client %d completed %d requests, want 1", ci, len(rts))
		}
	}
}
