// Anomaly diagnosis: the paper's §5.4 case study as a runnable walkthrough.
//
// A Recommend-like service misbehaves: response times spike and the thread
// count climbs, but metrics cannot say why. We open an EXIST window on the
// process and read the chronology out of the five-tuple sidecar and the
// decoded traces: one thread performs a synchronous log write that blocks
// on disk for hundreds of milliseconds, and its siblings pile up on the
// logging mutex behind it.
//
//	go run ./examples/anomaly-diagnosis
package main

import (
	"fmt"
	"log"
	"os"

	"exist/internal/core"
	"exist/internal/decode"
	"exist/internal/kernel"
	"exist/internal/node"
	"exist/internal/report"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
	"exist/internal/xrand"
)

func main() {
	const seed = 7

	// The observed service: Recommend (heavily multi-threaded ML serving),
	// provisioned through the node runtime.
	rec := workload.CaseStudyApps()[4]
	prog := node.Program(rec, seed)
	rt := node.Provision(node.Spec{
		Cores:     8,
		HT:        true,
		Seed:      seed,
		Timeslice: 500 * simtime.Microsecond,
		Workload:  rec,
		Threads:   6,
		Walker:    true,
		Scale:     trace.SpaceScale,
		Prog:      prog,
	})
	m, proc := rt.Machine, rt.Proc

	// The hidden culprit: a logging thread in the same process whose
	// writes are synchronous. Each one can block on disk for a long time.
	logWeights := make([]float64, int(kernel.NumSyscallClasses))
	logWeights[kernel.SysFileWriteSlow] = 1
	logger := m.SpawnThread(proc, sched.NewWalkerExec(
		prog, xrand.New(seed), m.Cfg.Cost, trace.SpaceScale).
		WithPacing(110*simtime.Millisecond, logWeights))

	// Per-thread syscall tallies, the kind of evidence decoded traces plus
	// the sidecar give an on-call engineer.
	futexWaits := map[int]int64{}
	logWrites := map[int]int64{}
	m.SyscallHooks = append(m.SyscallHooks, func(ev sched.SyscallEvent) simtime.Duration {
		if ev.Thread.Proc != proc {
			return 0
		}
		switch ev.Class {
		case kernel.SysFutex:
			futexWaits[ev.Thread.TID]++
		case kernel.SysFileWriteSlow:
			logWrites[ev.Thread.TID]++
		}
		return 0
	})

	fmt.Println("observed: RT spikes and thread-count growth on Recommend — metrics alone cannot explain it")
	fmt.Println("action:   open an EXIST window on the process")

	// This example drives the controller directly (the escape hatch below
	// the tracer backends): anomaly windows are opened on demand, not on
	// the runtime's fixed schedule.
	m.Run(100 * simtime.Millisecond)
	ctrl := rt.Controller()
	ccfg := core.DefaultConfig()
	ccfg.Period = quick(800 * simtime.Millisecond)
	ccfg.Scale = trace.SpaceScale
	ccfg.Seed = seed
	sess, err := ctrl.Trace(proc, ccfg)
	if err != nil {
		log.Fatal(err)
	}
	m.Run(sess.Start + ccfg.Period + 10*simtime.Millisecond)
	result, err := sess.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window:   %v, %d five-tuple records, %.1f MB of trace\n",
		result.Duration(), len(result.Switches.Records), result.SpaceMB())

	// Chronological evidence 1: the longest scheduled-out gap per thread
	// in the sidecar. A thread that scheduled out and never came back
	// within the window is the strongest signal: it is still stuck when
	// the window closes.
	culprit := report.Longest(report.LongestGaps(result))
	fmt.Printf("evidence: thread %d left the CPU at %v and stayed blocked for at least %v\n",
		culprit.TID, culprit.From, culprit.Dur)
	if culprit.TID == int32(logThreadID(logger)) {
		fmt.Printf("evidence: that is the logging thread — it issued %d synchronous log writes\n",
			logWrites[logThreadID(logger)])
	}

	// Chronological evidence 2: siblings pile up behind the logging mutex
	// while the logger is blocked.
	waiting := 0
	for tid, n := range futexWaits {
		if tid != logThreadID(logger) && n > 0 {
			waiting++
		}
	}
	dec := decode.Decode(result, prog)
	fmt.Printf("evidence: decoded %d control-flow events; %d sibling threads show futex (mutex) waits\n",
		dec.Events, waiting)

	fmt.Println("diagnosis: synchronous logging blocks on disk I/O; co-located threads serialize on the logging mutex")
	fmt.Println("fix:       isolate the log disk for similar applications, or make logging asynchronous")

	fmt.Println()
	fmt.Println("--- full behaviour report (what an on-call engineer receives) ---")
	fmt.Print(report.Build(dec, prog, result, report.Options{TopFuncs: 5}))
}

// logThreadID returns a thread's ID (small helper keeping main readable).
func logThreadID(t *sched.Thread) int { return t.TID }

// quick halves simulated durations when EXIST_QUICK is set (CI smoke runs).
func quick(d simtime.Duration) simtime.Duration {
	if os.Getenv("EXIST_QUICK") != "" {
		return d / 2
	}
	return d
}
