// Quickstart: trace one application on one simulated node with EXIST and
// decode the result.
//
// The ten-line story: provision a node (machine + workload) from a
// node.Spec, attach the EXIST backend through tracer.New (the
// controller configures per-core buffers and the CR3 filter up front, a
// sched_switch hook enables each core's tracer exactly once, and a
// high-resolution timer closes the window), then reconstruct the execution
// from the packet streams.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"exist/internal/binary"
	"exist/internal/decode"
	"exist/internal/metrics"
	"exist/internal/node"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/tracer"
	"exist/internal/workload"
)

func main() {
	// A 8-core node running a Memcached-like service, traced on demand
	// for 300 ms after a 100 ms warmup.
	profile, err := workload.ByName("mc")
	if err != nil {
		log.Fatal(err)
	}
	prog := node.Program(profile, 42)
	rt := node.Provision(node.Spec{
		Cores:       8,
		HT:          true,
		Seed:        42,
		Workload:    profile,
		Walker:      true,             // branch-exact execution
		Scale:       trace.SpaceScale, // slow-motion factor (see package trace)
		Prog:        prog,
		Warmup:      100 * simtime.Millisecond,
		Dur:         quick(300 * simtime.Millisecond),
		Drain:       100 * simtime.Millisecond,
		Backend:     "EXIST",
		KeepSession: true,
	})
	m, proc := rt.Machine, rt.Proc

	// Record ground truth so we can score the reconstruction — only
	// possible in simulation, and exactly how the test suite validates
	// the whole pipeline.
	gt := trace.NewGroundTruth(prog, 0, 0)
	m.Listener = func(th *sched.Thread, now simtime.Time, ev binary.BranchEvent) {
		if th.Proc == proc {
			gt.Record(int32(th.TID), now, ev)
		}
	}

	// Warm up and open the session.
	if err := rt.Attach(); err != nil {
		log.Fatal(err)
	}
	sess := rt.Backend.(*tracer.EXIST).CoreSession()
	gt.Start, gt.End = sess.Start, sess.Start+rt.Spec.Dur

	rt.Run()
	r, err := rt.Harvest()
	if err != nil {
		log.Fatal(err)
	}
	result := r.Session

	fmt.Printf("traced %s for %v on %d cores\n", proc.Name, result.Duration(), len(sess.Plan.Cores))
	fmt.Printf("trace volume: %.1f MB (real scale), %d five-tuple records\n",
		result.SpaceMB(), len(result.Switches.Records))
	fmt.Printf("control cost: %d MSR operations for %d context switches\n",
		r.MSROps, m.Stats.Switches)

	rec := decode.Decode(result, prog)
	score := metrics.PathAccuracy(gt.ByThread, rec.ByThread())
	fmt.Printf("reconstruction: %d events, %.1f%% of ground truth recovered, %d spurious\n",
		rec.Events, score.Accuracy*100, score.Spurious)
}

// quick halves simulated durations when EXIST_QUICK is set (CI smoke runs).
func quick(d simtime.Duration) simtime.Duration {
	if os.Getenv("EXIST_QUICK") != "" {
		return d / 2
	}
	return d
}
