package experiments

import (
	"fmt"

	"exist/internal/binary"
	"exist/internal/core"
	"exist/internal/decode"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/memalloc"
	"exist/internal/node"
	"exist/internal/report"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/trace"
	"exist/internal/workload"
	"exist/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "fig21",
		Title: "Figure 21: costly-function profiles of typical applications (case study)",
		Paper: "ML-based apps differ from traditional ones, e.g. Recommend is KERNEL_IRQ- and mutex-heavy",
		Run:   runFig21,
	})
	register(Experiment{
		ID:    "fig22",
		Title: "Figure 22: memory-access width analysis (case study)",
		Paper: "ML-based apps show 25-70% quad-width (8-byte) accesses",
		Run:   runFig22,
	})
	register(Experiment{
		ID:    "tab05",
		Title: "Table 5: functionality comparison with other tracing tools",
		Paper: "EXIST uniquely combines instruction/user tracing, no intrusion, continuity, and usability",
		Run:   runTab05,
	})
	register(Experiment{
		ID:    "casestudy",
		Title: "Section 5.4: diagnosing a blocking synchronous-logging anomaly with EXIST",
		Paper: "a file_write consuming seconds blocks co-located threads on a logging mutex",
		Run:   runCaseStudy,
	})
}

// caseStudyProfiles traces each case-study app with EXIST, the i-th at
// seed base+7·i, and returns each decoded profile.
func caseStudyProfiles(cfg Config, apps []workload.Profile, base uint64) ([]*decode.Result, error) {
	noise, err := workload.ByName("Cache")
	if err != nil {
		return nil, err
	}
	period := durQuick(cfg, 200*simtime.Millisecond, 500*simtime.Millisecond)
	cells := make([]cell, len(apps))
	for ai, p := range apps {
		prog := p.Synthesize(cfg.Seed ^ 0xCA5E)
		cells[ai] = windowCell(noise, p, prog, period, 0, base+uint64(ai*7), false, 100*simtime.Millisecond)
	}
	ws, err := runWindows(cfg, cells)
	return recs(ws), err
}

// categoryGroups defines the three panels of Figure 21.
var categoryGroups = []struct {
	name string
	cats []binary.FuncCategory
}{
	{"Memory Operations", []binary.FuncCategory{
		binary.CatMemJE, binary.CatMemTC, binary.CatMemAlloc, binary.CatMemFree,
		binary.CatMemCopy, binary.CatMemSet, binary.CatMemCmp, binary.CatMemMove}},
	{"Synchronizations", []binary.FuncCategory{
		binary.CatSyncAtomic, binary.CatSyncSpinlock, binary.CatSyncMutex, binary.CatSyncCAS}},
	{"Kernel Operations", []binary.FuncCategory{
		binary.CatKernelSche, binary.CatKernelIRQ, binary.CatKernelNet}},
}

func runFig21(cfg Config) (*Result, error) {
	apps := workload.CaseStudyApps()
	res := &Result{ID: "fig21"}
	decoded, err := caseStudyProfiles(cfg, apps, 2100)
	if err != nil {
		return nil, err
	}
	results := make(map[string]*decode.Result, len(apps))
	for ai, app := range apps {
		results[app.Name] = decoded[ai]
	}
	for _, group := range categoryGroups {
		t := &tabular.Table{
			Title:  "Figure 21 (" + group.name + "): share of costly leaf-function hits",
			Header: append([]string{"app"}, catNames(group.cats)...),
		}
		for _, app := range apps {
			rec := results[app.Name]
			var total int64
			for _, c := range group.cats {
				total += rec.CatHits[c]
			}
			row := []string{app.Name}
			for _, c := range group.cats {
				frac := 0.0
				if total > 0 {
					frac = float64(rec.CatHits[c]) / float64(total)
				}
				row = append(row, fmt.Sprintf("%.0f%%", frac*100))
			}
			t.AddRow(row...)
		}
		res.Tables = append(res.Tables, t)
	}
	// Headline check: Recommend is IRQ-heavy among kernel operations.
	rec := results["Recommend"]
	kernTotal := rec.CatHits[binary.CatKernelSche] + rec.CatHits[binary.CatKernelIRQ] + rec.CatHits[binary.CatKernelNet]
	if kernTotal > 0 {
		res.Metric("recommend_irq_share", float64(rec.CatHits[binary.CatKernelIRQ])/float64(kernTotal))
	}
	res.Tables[len(res.Tables)-1].Notes = append(res.Tables[len(res.Tables)-1].Notes,
		"paper: heavily multi-threaded Recommend shows rescheduling interrupts followed by mutex synchronization")
	return res, nil
}

func catNames(cats []binary.FuncCategory) []string {
	out := make([]string, 0, len(cats))
	for _, c := range cats {
		out = append(out, c.String())
	}
	return out
}

func runFig22(cfg Config) (*Result, error) {
	apps := workload.CaseStudyApps()
	res := &Result{ID: "fig22"}
	// One trace+decode per app, shared by every memory-class panel (the
	// per-app seed never depended on the class).
	decoded, err := caseStudyProfiles(cfg, apps, 2200)
	if err != nil {
		return nil, err
	}
	for cls := 0; cls < binary.NumMemClasses; cls++ {
		t := &tabular.Table{
			Title:  fmt.Sprintf("Figure 22 (%s): access width distribution", binary.MemClass(cls)),
			Header: []string{"app", "1B", "2B", "4B", "8B"},
		}
		for ai, app := range apps {
			rec := decoded[ai]
			var total int64
			for w := 0; w < 4; w++ {
				total += rec.MemOps[cls][w]
			}
			row := []string{app.Name}
			for w := 0; w < 4; w++ {
				frac := 0.0
				if total > 0 {
					frac = float64(rec.MemOps[cls][w]) / float64(total)
				}
				row = append(row, fmt.Sprintf("%.0f%%", frac*100))
			}
			t.AddRow(row...)
			if cls == int(binary.MemReadOnly) && total > 0 {
				res.Metric("ro8_"+app.Name, float64(rec.MemOps[cls][3])/float64(total))
			}
		}
		if cls == binary.NumMemClasses-1 {
			t.Notes = append(t.Notes,
				"paper: ML-based applications (Prediction/Matching/Recommend) have significantly more 8-byte accesses")
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

func runTab05(cfg Config) (*Result, error) {
	res := &Result{ID: "tab05"}
	t := &tabular.Table{
		Title:  "Table 5: functionality comparison with other tracing tools",
		Header: []string{"property", "eBPF", "dTrace", "sTrace", "Hubble[68]", "Argus[88]", "EXIST"},
	}
	rows := [][]string{
		{"InstTrace", "yes", "yes", "no", "yes", "no", "yes"},
		{"UserTrace", "no", "yes", "no", "yes", "yes", "yes"},
		{"NoIntrusion", "yes", "no", "yes", "no", "no", "yes"},
		{"Continuity", "no", "no", "no", "yes", "yes", "yes"},
		{"Usability", "no", "no", "yes", "yes", "yes", "yes"},
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"EXIST captures user-level instruction-granularity traces continuously, with no binary intrusion")
	res.Tables = append(res.Tables, t)
	res.Metric("properties_all_yes", 5)
	return res, nil
}

// runCaseStudy reproduces the §5.4 anomaly diagnosis: a Recommend worker
// whose logging thread writes logs synchronously and blocks on disk for
// seconds, stalling sibling threads on the logging mutex. EXIST's bounded
// window plus the five-tuple sidecar exposes the chronology that metrics
// alone cannot explain.
func runCaseStudy(cfg Config) (*Result, error) {
	rec := workload.CaseStudyApps()[4] // Recommend
	prog := rec.Synthesize(cfg.Seed ^ 0xD1A6)

	// This node's log disk is degraded: synchronous writes stall for
	// ~300 ms (the paper's incident saw 3.7 s — longer than any tracing
	// window; a shorter stall lets several blocking episodes fall inside
	// one window so the trace itself shows the pattern).
	tbl := kernel.DefaultSyscallTable()
	tbl[kernel.SysFileWriteSlow].BlockMean = 280 * simtime.Millisecond
	rt := node.Provision(node.Spec{
		Cores:     8,
		Timeslice: 500 * simtime.Microsecond,
		Seed:      cfg.Seed ^ 0x5417,
		Syscalls:  tbl,
		Workload:  rec,
		Threads:   4,
		Walker:    true,
		Scale:     trace.SpaceScale,
		Prog:      prog,
	})
	m, proc := rt.Machine, rt.Proc

	// The culprit: a synchronous logging thread in the same process. Its
	// writes block on disk for hundreds of milliseconds; siblings then
	// pile up on the logging mutex (futex-heavy behaviour).
	logWeights := make([]float64, int(kernel.NumSyscallClasses))
	logWeights[kernel.SysFileWriteSlow] = 1
	// The logger executes the same (scaled) binary as its siblings; its
	// distinguishing behaviour is the paced synchronous write.
	// The logger spawns before housekeeping so thread IDs (and thus the
	// scheduler's realization) match the original hand-built sequence.
	logger := sched.NewWalkerExec(prog, xrand.Split(m.Cfg.Seed, "logger"), m.Cfg.Cost, trace.SpaceScale).
		WithPacing(110*simtime.Millisecond, logWeights)
	logThread := m.SpawnThread(proc, logger)
	node.AddHousekeeping(m, m.Cfg.Seed+91)
	// Data-flow extension (§6.1): syscall classes enter the trace stream
	// as PTWRITE operands, so the blocking call is identifiable from the
	// trace itself rather than from external instrumentation.
	m.EmitPTWrites = true

	// Per-thread syscall tally — the analysis input EXIST's decoded
	// traces plus sidecar provide in production.
	type tally struct{ counts map[kernel.SyscallClass]int64 }
	tallies := map[int]*tally{}
	m.SyscallHooks = append(m.SyscallHooks, func(ev sched.SyscallEvent) simtime.Duration {
		if ev.Thread.Proc == proc {
			tl := tallies[ev.Thread.TID]
			if tl == nil {
				tl = &tally{counts: map[kernel.SyscallClass]int64{}}
				tallies[ev.Thread.TID] = tl
			}
			tl.counts[ev.Class]++
		}
		return 0
	})

	// EXIST is triggered on demand when abnormal metrics are detected
	// (§3.1): the first long blocking write produces the response-time
	// spike, monitoring flags it, and the tracing window opens while the
	// anomaly is still unfolding.
	ctrl := rt.Controller()
	ccfg := core.DefaultConfig()
	ccfg.Period = durQuick(cfg, 600*simtime.Millisecond, 1500*simtime.Millisecond)
	ccfg.Scale = trace.SpaceScale
	ccfg.Ctl = ipt.DefaultCtl() | ipt.CtlPTWEn
	// Anomaly diagnosis traces all involved entities (§3.4): no core
	// sampling, so the mostly-idle logging thread's core is covered too —
	// and the full 1 GB node budget.
	ccfg.Mem = memalloc.Config{Budget: 1 << 30, PerCoreMin: 4 << 20, PerCoreMax: 128 << 20, SampleRatio: 1}
	ccfg.Seed = m.Cfg.Seed
	var sess *core.Session
	var traceErr error
	triggered := false
	m.SyscallHooks = append(m.SyscallHooks, func(ev sched.SyscallEvent) simtime.Duration {
		if triggered || ev.Thread != logThread || ev.Class != kernel.SysFileWriteSlow {
			return 0
		}
		triggered = true
		// Metrics pipelines take tens of milliseconds to flag the spike.
		m.Eng.After(20*simtime.Millisecond, func(simtime.Time) {
			sess, traceErr = ctrl.Trace(proc, ccfg)
		})
		return 0
	})
	m.Run(4 * simtime.Second)
	if traceErr != nil {
		return nil, traceErr
	}
	if sess == nil {
		return nil, fmt.Errorf("casestudy: anomaly never triggered")
	}
	sres, err := sess.Result()
	if err != nil {
		return nil, err
	}

	// Diagnosis from the five-tuple sidecar: the largest scheduled-out
	// gap per thread inside the window.
	gaps := report.LongestGaps(sres)
	seen := map[int32]bool{}
	for _, g := range gaps {
		seen[g.TID] = true
	}
	// A target thread with no sidecar records at all was blocked for the
	// entire window — it left the CPU before tracing started and never
	// came back (the paper's 3.7 s write dwarfs any window).
	for _, th := range proc.Threads {
		if !seen[int32(th.TID)] {
			gaps = append(gaps, report.Gap{TID: int32(th.TID), From: sres.Start, Dur: sres.End - sres.Start})
		}
	}
	culprit := report.Longest(gaps)

	// Decoded PTWRITE operands attribute the blocking syscall to the
	// culprit thread directly from the trace.
	rec2 := decode.Decode(sres, prog)
	var culpritSlowWrites, anySlowWrites int64
	for _, ptw := range rec2.PTWrites {
		if kernel.SyscallClass(ptw.Val) == kernel.SysFileWriteSlow {
			anySlowWrites++
			if ptw.TID == culprit.TID {
				culpritSlowWrites++
			}
		}
	}
	_ = anySlowWrites

	res := &Result{ID: "casestudy"}
	t := &tabular.Table{
		Title:  "Section 5.4 case study: diagnosing the Recommend anomaly with EXIST",
		Header: []string{"evidence", "finding"},
	}
	t.AddRow("traced window", fmt.Sprintf("%v starting at %v", sres.Duration(), sres.Start))
	t.AddRow("five-tuple records", fmt.Sprintf("%d", len(sres.Switches.Records)))
	t.AddRow("largest scheduled-out gap", fmt.Sprintf("thread %d blocked %v (from %v)",
		culprit.TID, culprit.Dur, culprit.From))
	if tl := tallies[int(culprit.TID)]; tl != nil {
		t.AddRow("blocking syscall", fmt.Sprintf("%s x%d",
			m.Syscall(kernel.SysFileWriteSlow).Name, tl.counts[kernel.SysFileWriteSlow]))
	}
	if culpritSlowWrites > 0 {
		t.AddRow("PTWRITE evidence in trace", fmt.Sprintf("%d sync-log writes attributed to thread %d",
			culpritSlowWrites, culprit.TID))
	} else {
		t.AddRow("PTWRITE evidence in trace",
			"none in-window: the blocking write outlives the whole window (as the paper's 3.7 s write would)")
	}
	var futexers int
	for tid, tl := range tallies {
		if tid != int(culprit.TID) && tl.counts[kernel.SysFutex] > 0 {
			futexers++
		}
	}
	t.AddRow("sibling threads waiting on the logging mutex", fmt.Sprintf("%d (futex activity)", futexers))
	t.AddRow("diagnosis", "synchronous logging blocks on disk I/O and serializes co-located threads")
	t.AddRow("remediation", "isolate the log disk or make logging asynchronous")
	t.Notes = append(t.Notes,
		"paper: a file_write consuming 3.7 s plus mutex-wait syscalls explained the response-time and thread-count anomaly")

	isLogger := culprit.TID == int32(logThread.TID)
	res.Metric("culprit_is_logger", boolMetric(isLogger))
	res.Metric("ptw_evidence", float64(culpritSlowWrites))
	res.Metric("ptw_any", float64(anySlowWrites))
	res.Metric("ptw_total", float64(len(rec2.PTWrites)))
	res.Metric("culprit_gap_ms", culprit.Dur.Millis())
	res.Tables = append(res.Tables, t)
	return res, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
