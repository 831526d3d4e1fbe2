package experiments

import (
	"fmt"

	"exist/internal/binary"
	"exist/internal/core"
	"exist/internal/decode"
	"exist/internal/memalloc"
	"exist/internal/metrics"
	"exist/internal/node"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/trace"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ablation-control",
		Title: "Ablation: O(#cores) control (OTC) vs conventional per-thread buffer control",
		Paper: "design claim of §3.2: control operations drop from O(#switches) to O(#cores)",
		Run:   runAblationControl,
	})
	register(Experiment{
		ID:    "ablation-hotswap",
		Title: "Ablation: hypothetical hot-switching hardware (§6.1) under per-thread control",
		Paper: "discussion claim: hot switching would allow cheaper software-friendly abstractions",
		Run:   runAblationHotswap,
	})
	register(Experiment{
		ID:    "ablation-drop",
		Title: "Ablation: compulsory drop (ToPA STOP) vs conventional ring buffer",
		Paper: "design claim of §3.3: STOP keeps the data nearest the anomaly trigger",
		Run:   runAblationDrop,
	})
}

// ablationRun is what an ablation window keeps: the session's control
// operations and buffer swaps, the machine's context switches and the
// traced workload's cycles.
type ablationRun struct {
	ops, swaps, switches, cycles int64
}

// ablationWindow traces mc on an 8-core node for one window under the
// given buffer mode, with or without hypothetical hot switching.
func ablationWindow(cfg Config, seed uint64, mode core.BufferMode, hot bool) (ablationRun, error) {
	mc, err := workload.ByName("mc")
	if err != nil {
		return ablationRun{}, err
	}
	dur := durQuick(cfg, 500*simtime.Millisecond, 2*simtime.Second)
	rt := node.Provision(node.Spec{
		Cores:     8,
		Timeslice: 1 * simtime.Millisecond,
		Seed:      cfg.Seed ^ seed,
		Workload:  mc,
	})
	m, proc := rt.Machine, rt.Proc
	ctrl := rt.Controller()
	ccfg := core.DefaultConfig()
	ccfg.Period = dur
	ccfg.Buffers = mode
	ccfg.HotSwap = hot
	ccfg.Seed = m.Cfg.Seed
	ccfg.Mem = memalloc.Config{Budget: 64 << 20, PerCoreMin: 2 << 20, PerCoreMax: 16 << 20}
	sess, err := ctrl.Trace(proc, ccfg)
	if err != nil {
		return ablationRun{}, err
	}
	m.Run(dur + 10*simtime.Millisecond)
	return ablationRun{sess.Stats.MSROps, sess.Stats.BufferSwaps, m.Stats.Switches, proc.Stats().Cycles}, nil
}

func runAblationControl(cfg Config) (*Result, error) {
	perCore, err := ablationWindow(cfg, 0xAB1, core.PerCore, false)
	if err != nil {
		return nil, err
	}
	perThread, err := ablationWindow(cfg, 0xAB1, core.PerThread, false)
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "ablation-control"}
	t := &tabular.Table{
		Title:  "Ablation: control operations under per-core (OTC) vs per-thread buffers",
		Header: []string{"mode", "MSR ops", "buffer swaps", "context switches", "workload cycles"},
	}
	t.AddRowf("per-core (EXIST)", perCore.ops, int64(0), perCore.switches, perCore.cycles)
	t.AddRowf("per-thread (conventional)", perThread.ops, perThread.swaps, perThread.switches, perThread.cycles)
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-thread control issues %.0fx the MSR operations", float64(perThread.ops)/float64(max(perCore.ops, 1))),
		"the paper's CDF (Figure 8) makes the same point: most entities switch within 1 ms, so per-switch control is ~1000x per-second control")
	res.Metric("msr_ops_per_core_mode", float64(perCore.ops))
	res.Metric("msr_ops_per_thread_mode", float64(perThread.ops))
	res.Metric("throughput_penalty", float64(perCore.cycles)/float64(max(perThread.cycles, 1))-1)
	res.Tables = append(res.Tables, t)
	return res, nil
}

// runAblationHotswap quantifies the §6.1 hot-switching what-if: how much
// of the conventional per-thread design's cost is purely the
// disable/reprogram/enable dance that shipping hardware mandates.
func runAblationHotswap(cfg Config) (*Result, error) {
	cold, err := ablationWindow(cfg, 0xAB7, core.PerThread, false)
	if err != nil {
		return nil, err
	}
	hot, err := ablationWindow(cfg, 0xAB7, core.PerThread, true)
	if err != nil {
		return nil, err
	}
	exist, err := ablationWindow(cfg, 0xAB7, core.PerCore, false)
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "ablation-hotswap"}
	t := &tabular.Table{
		Title:  "Ablation: per-thread buffer control with hypothetical hot switching (§6.1)",
		Header: []string{"design", "MSR ops", "workload cycles"},
	}
	t.AddRowf("per-thread, shipping hardware (disable/enable)", cold.ops, cold.cycles)
	t.AddRowf("per-thread, hot switching (what-if)", hot.ops, hot.cycles)
	t.AddRowf("per-core (EXIST, shipping hardware)", exist.ops, exist.cycles)
	t.Notes = append(t.Notes,
		"hot switching would recover much of the per-thread design's cost — but O(#cores) control needs no new hardware")
	res.Metric("cold_ops", float64(cold.ops))
	res.Metric("hot_ops", float64(hot.ops))
	res.Metric("exist_ops", float64(exist.ops))
	res.Metric("hot_recovery", float64(hot.cycles-cold.cycles)/float64(max(exist.cycles-cold.cycles, 1)))
	res.Tables = append(res.Tables, t)
	return res, nil
}

func runAblationDrop(cfg Config) (*Result, error) {
	s1, err := workload.ByName("Search1")
	if err != nil {
		return nil, err
	}
	period := 300 * simtime.Millisecond

	// The anomaly fires at the window start (that is what triggers
	// tracing). With buffers far smaller than the window's trace volume,
	// the STOP policy retains the prefix nearest the trigger; a ring
	// retains only the suffix.
	run := func(drop core.DropPolicy) (firstHalf, secondHalf float64, err error) {
		prog := s1.Synthesize(cfg.Seed ^ 0xAB2)
		rt := node.Provision(node.Spec{
			Cores:        8,
			Timeslice:    500 * simtime.Microsecond,
			Seed:         cfg.Seed ^ 0xAB3,
			Workload:     s1,
			Walker:       true,
			Scale:        trace.SpaceScale,
			Prog:         prog,
			Housekeeping: true,
		})
		m, proc := rt.Machine, rt.Proc

		gtFirst := trace.NewGroundTruth(prog, 0, 0)
		gtSecond := trace.NewGroundTruth(prog, 0, 0)
		m.Listener = func(th *sched.Thread, now simtime.Time, ev binary.BranchEvent) {
			if th.Proc != proc {
				return
			}
			gtFirst.Record(int32(th.TID), now, ev)
			gtSecond.Record(int32(th.TID), now, ev)
		}
		m.Run(100 * simtime.Millisecond)
		ctrl := rt.Controller()
		ccfg := core.DefaultConfig()
		ccfg.Period = period
		ccfg.Scale = trace.SpaceScale
		ccfg.Seed = m.Cfg.Seed
		ccfg.Drop = drop
		// Budget roughly half of the window's volume so the tail cannot fit.
		ccfg.Mem = memalloc.Config{Budget: 160 << 20, PerCoreMin: 2 << 20, PerCoreMax: 24 << 20}
		sess, err := ctrl.Trace(proc, ccfg)
		if err != nil {
			return 0, 0, err
		}
		mid := sess.Start + period/2
		gtFirst.Start, gtFirst.End = sess.Start, mid
		gtSecond.Start, gtSecond.End = mid, sess.Start+period
		m.Run(sess.Start + period + 10*simtime.Millisecond)
		sres, err := sess.Result()
		if err != nil {
			return 0, 0, err
		}
		rec := decode.Decode(sres, prog)
		a := metrics.PathAccuracy(gtFirst.ByThread, rec.ByThread())
		b := metrics.PathAccuracy(gtSecond.ByThread, rec.ByThread())
		return a.Accuracy, b.Accuracy, nil
	}

	stopFirst, stopSecond, err := run(core.DropStop)
	if err != nil {
		return nil, err
	}
	ringFirst, ringSecond, err := run(core.DropRing)
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "ablation-drop"}
	t := &tabular.Table{
		Title:  "Ablation: which half of an overflowing window survives, by drop policy",
		Header: []string{"policy", "first half (nearest anomaly)", "second half"},
	}
	t.AddRow("compulsory drop / STOP (EXIST)", pct(stopFirst), pct(stopSecond))
	t.AddRow("ring buffer (conventional)", pct(ringFirst), pct(ringSecond))
	t.Notes = append(t.Notes,
		"tracing is triggered by the anomaly, so the window prefix is the evidence; STOP preserves it, a ring overwrites it")
	res.Metric("stop_first_half", stopFirst)
	res.Metric("ring_first_half", ringFirst)
	res.Tables = append(res.Tables, t)
	return res, nil
}
