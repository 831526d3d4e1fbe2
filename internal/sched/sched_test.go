package sched

import (
	"math"
	"testing"

	"exist/internal/binary"
	"exist/internal/cpu"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// newTestMachine returns a small machine with deterministic settings.
func newTestMachine(cores int) *Machine {
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.HTSiblings = false
	cfg.Seed = 42
	return NewMachine(cfg)
}

// analytic spawns a compute-only analytic thread (no syscalls).
func analytic(m *Machine, p *Process, tid int) *Thread {
	exec := NewAnalyticExec(xrand.SplitN(7, "exec", tid), m.Cfg.Cost,
		0, nil, 40, 0.2, 1.5)
	return m.SpawnThread(p, exec)
}

// analyticSyscalls spawns an analytic thread with syscalls.
func analyticSyscalls(m *Machine, p *Process, tid int, meanCycles int64, class kernel.SyscallClass) *Thread {
	weights := make([]float64, int(class)+1)
	weights[class] = 1
	exec := NewAnalyticExec(xrand.SplitN(7, "exec", tid), m.Cfg.Cost,
		meanCycles, weights, 40, 0.2, 1.5)
	return m.SpawnThread(p, exec)
}

func TestSingleThreadFullSpeed(t *testing.T) {
	m := newTestMachine(2)
	p := m.AddProcess("solo", nil, CPUSet, []int{0})
	th := analytic(m, p, 1)
	m.Run(1 * simtime.Second)
	// One thread alone on one core at 2.9 GHz should retire ~2.9e9 cycles
	// in a second, minus negligible scheduling overhead.
	want := 2.9e9
	got := float64(th.Stats.Cycles)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("cycles = %.3g, want ~%.3g", got, want)
	}
	if th.Stats.Syscalls != 0 {
		t.Fatalf("compute-only thread made %d syscalls", th.Stats.Syscalls)
	}
	if m.Cores[1].BusyNS != 0 {
		t.Fatal("unused core accumulated busy time")
	}
}

func TestTwoThreadsShareOneCore(t *testing.T) {
	m := newTestMachine(1)
	p := m.AddProcess("a", nil, CPUSet, []int{0})
	q := m.AddProcess("b", nil, CPUSet, []int{0})
	ta := analytic(m, p, 1)
	tb := analytic(m, q, 2)
	m.Run(1 * simtime.Second)
	ca, cb := float64(ta.Stats.Cycles), float64(tb.Stats.Cycles)
	if math.Abs(ca-cb)/(ca+cb) > 0.05 {
		t.Fatalf("unfair round-robin: %v vs %v", ca, cb)
	}
	// Each should get slightly under half of full speed (switch costs and
	// core-share interference eat some).
	if ca+cb > 2.9e9 || ca+cb < 2.0e9 {
		t.Fatalf("combined throughput %.3g implausible", ca+cb)
	}
	if m.Stats.Switches < 100 {
		t.Fatalf("expected frequent switches, got %d", m.Stats.Switches)
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	m := newTestMachine(1)
	p := m.AddProcess("a", nil, CPUSet, []int{0})
	q := m.AddProcess("b", nil, CPUSet, []int{0})
	analytic(m, p, 1)
	analytic(m, q, 2)
	m.Run(500 * simtime.Millisecond)
	if m.Cores[0].KernelNS <= 0 {
		t.Fatal("no kernel time charged for switches")
	}
	minKernel := simtime.Duration(m.Stats.Switches) * m.Cfg.Cost.ContextSwitch
	if m.Cores[0].KernelNS < minKernel {
		t.Fatalf("kernel time %v below switch floor %v", m.Cores[0].KernelNS, minKernel)
	}
}

func TestSwitchHookCostSlowsWorkload(t *testing.T) {
	run := func(hook SwitchHook) int64 {
		m := newTestMachine(1)
		if hook != nil {
			m.SwitchHooks = append(m.SwitchHooks, hook)
		}
		p := m.AddProcess("a", nil, CPUSet, []int{0})
		q := m.AddProcess("b", nil, CPUSet, []int{0})
		ta := analytic(m, p, 1)
		analytic(m, q, 2)
		m.Run(1 * simtime.Second)
		return ta.Stats.Cycles
	}
	base := run(nil)
	heavy := run(func(SwitchEvent) simtime.Duration { return 100 * simtime.Microsecond })
	if heavy >= base {
		t.Fatalf("expensive switch hook did not slow workload: %d vs %d", heavy, base)
	}
	slowdown := float64(base)/float64(heavy) - 1
	if slowdown < 0.01 {
		t.Fatalf("slowdown %.4f too small for a 100µs/switch hook", slowdown)
	}
}

func TestSyscallsBlockAndWake(t *testing.T) {
	m := newTestMachine(1)
	p := m.AddProcess("io", nil, CPUSet, []int{0})
	// nanosleep always blocks for ~2ms.
	th := analyticSyscalls(m, p, 1, 2_900_000 /* ~1ms of work */, kernel.SysNanosleep)
	m.Run(1 * simtime.Second)
	if th.Stats.Syscalls < 100 {
		t.Fatalf("expected hundreds of syscalls, got %d", th.Stats.Syscalls)
	}
	// The thread sleeps ~2/3 of the time, so it must not consume the core.
	busyFrac := float64(m.Cores[0].BusyNS) / float64(simtime.Second)
	if busyFrac > 0.7 {
		t.Fatalf("blocking thread busy fraction %.2f too high", busyFrac)
	}
	if busyFrac < 0.1 {
		t.Fatalf("blocking thread busy fraction %.2f too low", busyFrac)
	}
	if th.Stats.KernelTime <= 0 {
		t.Fatal("syscalls charged no kernel time")
	}
}

func TestSyscallHookCharged(t *testing.T) {
	run := func(hook SyscallHook) (int64, simtime.Duration) {
		m := newTestMachine(1)
		if hook != nil {
			m.SyscallHooks = append(m.SyscallHooks, hook)
		}
		p := m.AddProcess("io", nil, CPUSet, []int{0})
		th := analyticSyscalls(m, p, 1, 290_000, kernel.SysSchedYield)
		m.Run(200 * simtime.Millisecond)
		return th.Stats.Syscalls, th.Stats.KernelTime
	}
	var hits int64
	_, baseKernel := run(nil)
	n, hookedKernel := run(func(SyscallEvent) simtime.Duration {
		hits++
		return 3 * simtime.Microsecond
	})
	if hits != n {
		t.Fatalf("hook saw %d syscalls, thread made %d", hits, n)
	}
	if hookedKernel <= baseKernel {
		t.Fatal("syscall hook cost not charged")
	}
}

func TestStallHookStretchesSegments(t *testing.T) {
	run := func(stall StallHook) int64 {
		m := newTestMachine(1)
		if stall != nil {
			m.StallHooks = append(m.StallHooks, stall)
		}
		p := m.AddProcess("a", nil, CPUSet, []int{0})
		th := analytic(m, p, 1)
		m.Run(1 * simtime.Second)
		return th.Stats.Cycles
	}
	base := run(nil)
	// A 5% stall (statistical sampling model) must cost ~5% throughput.
	stalled := run(func(_ *Core, _ simtime.Time, dur simtime.Duration) simtime.Duration {
		return dur / 20
	})
	ratio := float64(base) / float64(stalled)
	if ratio < 1.03 || ratio > 1.08 {
		t.Fatalf("stall ratio = %.4f, want ~1.05", ratio)
	}
}

func TestHTInterference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.HTSiblings = true // siblings: (0,2) and (1,3)
	cfg.Seed = 1
	m := NewMachine(cfg)
	p := m.AddProcess("a", nil, CPUSet, []int{0})
	q := m.AddProcess("b", nil, CPUSet, []int{2})
	ta := analytic(m, p, 1)
	analytic(m, q, 2)
	m.Run(500 * simtime.Millisecond)

	m2 := NewMachine(cfg)
	p2 := m2.AddProcess("a", nil, CPUSet, []int{0})
	ta2 := analytic(m2, p2, 1)
	m2.Run(500 * simtime.Millisecond)

	ratio := float64(ta2.Stats.Cycles) / float64(ta.Stats.Cycles)
	// Sibling-busy should inflate execution by about HTShare (1.28) but
	// the LLC term also applies (different processes, same domain).
	if ratio < 1.2 || ratio > 1.6 {
		t.Fatalf("HT interference ratio = %.3f, want ~1.3-1.4", ratio)
	}
}

func TestMigrationCounting(t *testing.T) {
	m := newTestMachine(4)
	p := m.AddProcess("share", nil, CPUShare, []int{0, 1, 2, 3})
	// Heavy oversubscription: waking threads regularly find their last
	// core queued (wake-affinity declines) and must migrate.
	for i := 0; i < 16; i++ {
		analyticSyscalls(m, p, i, 2_900_000, kernel.SysFutex)
	}
	m.Run(1 * simtime.Second)
	if m.Stats.Migrations == 0 {
		t.Fatal("expected some CPU migrations for waking shared threads")
	}
}

func TestSwitchPeriodCollection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.HTSiblings = false
	cfg.CollectSwitchPeriods = true
	cfg.Seed = 3
	m := NewMachine(cfg)
	p := m.AddProcess("a", nil, CPUShare, []int{0, 1})
	for i := 0; i < 4; i++ {
		analyticSyscalls(m, p, i, 1_450_000, kernel.SysFutex)
	}
	m.Run(1 * simtime.Second)
	st := &m.Stats
	if len(st.SwitchPeriodsAll) == 0 || len(st.SwitchPeriodsByCore) == 0 || len(st.SwitchPeriodsByProc) == 0 {
		t.Fatalf("switch periods not collected: %d/%d/%d",
			len(st.SwitchPeriodsAll), len(st.SwitchPeriodsByCore), len(st.SwitchPeriodsByProc))
	}
	for _, v := range st.SwitchPeriodsAll {
		if v < 0 {
			t.Fatal("negative switch period")
		}
	}
}

func TestWalkerExecEmitsGroundTruth(t *testing.T) {
	m := newTestMachine(1)
	prog := binary.Synthesize(binary.DefaultSpec("gt", 5))
	p := m.AddProcess("walker", prog, CPUSet, []int{0})
	exec := NewWalkerExec(prog, xrand.New(11), m.Cfg.Cost, 1e-4)
	th := m.SpawnThread(p, exec)
	var events int
	m.Listener = func(tt *Thread, _ simtime.Time, ev binary.BranchEvent) {
		if tt != th {
			t.Error("listener saw wrong thread")
		}
		events++
	}
	m.Run(100 * simtime.Millisecond)
	if events == 0 {
		t.Fatal("no ground-truth branch events")
	}
	if int64(events) != th.Stats.Branches {
		t.Fatalf("listener saw %d events, stats say %d", events, th.Stats.Branches)
	}
}

func TestTracedWalkerFillsTracer(t *testing.T) {
	m := newTestMachine(1)
	prog := binary.Synthesize(binary.DefaultSpec("tr", 6))
	p := m.AddProcess("walker", prog, CPUSet, []int{0})
	exec := NewWalkerExec(prog, xrand.New(12), m.Cfg.Cost, 1e-4)
	m.SpawnThread(p, exec)

	tr := m.Cores[0].Tracer
	if err := tr.SetOutput(ipt.NewToPA(1<<20, false)); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCR3Match(p.CR3); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	m.Run(100 * simtime.Millisecond)
	if tr.Stats.Bytes == 0 {
		t.Fatal("tracer captured nothing")
	}
	if tr.Stats.TIPs == 0 || tr.Stats.TNTs == 0 {
		t.Fatalf("tracer stats missing packet kinds: %+v", tr.Stats)
	}
}

func TestTracingStretchSlowsTracedProcess(t *testing.T) {
	run := func(traced bool) int64 {
		m := newTestMachine(1)
		prog := binary.Synthesize(binary.DefaultSpec("tr", 6))
		p := m.AddProcess("walker", prog, CPUSet, []int{0})
		exec := NewWalkerExec(prog, xrand.New(12), m.Cfg.Cost, 1e-4)
		th := m.SpawnThread(p, exec)
		if traced {
			tr := m.Cores[0].Tracer
			if err := tr.SetOutput(ipt.NewToPA(1<<22, false)); err != nil {
				t.Fatal(err)
			}
			if err := tr.SetCR3Match(p.CR3); err != nil {
				t.Fatal(err)
			}
			if err := tr.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
				t.Fatal(err)
			}
		}
		m.Run(200 * simtime.Millisecond)
		return th.Stats.Cycles
	}
	base, traced := run(false), run(true)
	if traced >= base {
		t.Fatalf("PT stretch missing: traced %d >= base %d", traced, base)
	}
	over := float64(base)/float64(traced) - 1
	if over > 0.05 {
		t.Fatalf("PT hardware overhead %.4f exceeds digit-level", over)
	}
}

func TestProcessCPI(t *testing.T) {
	m := newTestMachine(1)
	p := m.AddProcess("a", nil, CPUSet, []int{0})
	analytic(m, p, 1) // IPC 1.5
	m.Run(200 * simtime.Millisecond)
	cpi := p.CPI(m.Cfg.Cost)
	if cpi < 0.6 || cpi > 0.8 {
		t.Fatalf("CPI = %.3f, want ~1/1.5", cpi)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		m := newTestMachine(2)
		p := m.AddProcess("a", nil, CPUShare, []int{0, 1})
		t1 := analyticSyscalls(m, p, 1, 1_000_000, kernel.SysFutex)
		t2 := analyticSyscalls(m, p, 2, 1_000_000, kernel.SysRead)
		m.Run(300 * simtime.Millisecond)
		return t1.Stats.Cycles, t2.Stats.Cycles
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("nondeterministic runs: (%d,%d) vs (%d,%d)", a1, a2, b1, b2)
	}
}

func TestCPIIncludesKernelTime(t *testing.T) {
	m := newTestMachine(1)
	p := m.AddProcess("io", nil, CPUSet, []int{0})
	analyticSyscalls(m, p, 1, 290_000, kernel.SysSchedYield)
	m.Run(200 * simtime.Millisecond)
	cpi := p.CPI(m.Cfg.Cost)
	// Heavy syscall activity must raise CPI above the pure-user 1/1.5.
	if cpi <= 0.67 {
		t.Fatalf("CPI %.3f does not reflect kernel time", cpi)
	}
}

func TestProvisionModeString(t *testing.T) {
	if CPUSet.String() != "cpu-set" || CPUShare.String() != "cpu-share" {
		t.Fatal("bad mode strings")
	}
}

func TestAllCores(t *testing.T) {
	m := newTestMachine(3)
	cs := m.AllCores()
	if len(cs) != 3 || cs[0] != 0 || cs[2] != 2 {
		t.Fatalf("AllCores = %v", cs)
	}
}

func TestAddProcessValidation(t *testing.T) {
	m := newTestMachine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty core set")
		}
	}()
	m.AddProcess("bad", nil, CPUSet, nil)
}

func TestInterferenceFactorExclusive(t *testing.T) {
	m := newTestMachine(4)
	p := m.AddProcess("a", nil, CPUSet, []int{0})
	th := analytic(m, p, 1)
	m.Run(100 * simtime.Millisecond)
	_ = th
	f := m.interference(m.Cores[0], th)
	if f != 1.0 {
		t.Fatalf("exclusive interference = %v, want 1.0", f)
	}
}

func TestCPUModelDefaultUsed(t *testing.T) {
	var zero cpu.Model
	if zero.FrequencyGHz != 0 {
		t.Skip("zero model changed")
	}
}

func TestEmitPTWritesEndToEnd(t *testing.T) {
	m := newTestMachine(1)
	m.EmitPTWrites = true
	prog := binary.Synthesize(binary.DefaultSpec("ptw", 6))
	p := m.AddProcess("ptw", prog, CPUSet, []int{0})
	we := NewWalkerExec(prog, xrand.New(12), m.Cfg.Cost, 1e-4)
	we.WithPacing(50*simtime.Microsecond, []float64{0, 0, 1}) // sendto
	m.SpawnThread(p, we)
	tr := m.Cores[0].Tracer
	if err := tr.SetOutput(ipt.NewToPA(1<<20, false)); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCR3Match(p.CR3); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlPTWEn|ipt.CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	m.Run(50 * simtime.Millisecond)
	// Syscall classes must appear as PTW packets in the stream.
	parser := ipt.NewParser(tr.Output().Bytes())
	found := 0
	for {
		pkt, ok, err := parser.Next()
		if err != nil || !ok {
			break
		}
		if pkt.Kind == ipt.PktPTW {
			found++
			// Paced syscalls carry class 2 (sendto); native CFG syscall
			// sites carry the spec default (class 0).
			if pkt.Val != 2 && pkt.Val != 0 {
				t.Fatalf("PTW value = %d, want syscall class 0 or 2", pkt.Val)
			}
		}
	}
	if found == 0 {
		t.Fatal("no PTWRITE packets in stream")
	}
}

// Invariant: core time accounting never exceeds wall capacity, and busy
// time equals the sum of thread CPU time.
func TestAccountingInvariants(t *testing.T) {
	m := newTestMachine(4)
	p := m.AddProcess("mix", nil, CPUShare, m.AllCores())
	for i := 0; i < 6; i++ {
		analyticSyscalls(m, p, i, 1_500_000, kernel.SysFutex)
	}
	window := 700 * simtime.Millisecond
	m.Run(window)
	var busy, kern simtime.Duration
	for _, c := range m.Cores {
		// A segment in flight at the horizon may overshoot by one slice.
		if c.BusyNS+c.KernelNS > window+m.Cfg.Timeslice {
			t.Fatalf("core %d accounted %v, exceeds wall %v", c.ID, c.BusyNS+c.KernelNS, window)
		}
		busy += c.BusyNS
		kern += c.KernelNS
	}
	var cpu simtime.Duration
	for _, th := range p.Threads {
		cpu += th.Stats.CPUTime
	}
	if cpu > busy {
		t.Fatalf("thread CPU time %v exceeds core busy time %v", cpu, busy)
	}
	if busy-cpu > busy/10 {
		t.Fatalf("core busy %v and thread CPU %v diverge beyond slack", busy, cpu)
	}
	if kern <= 0 {
		t.Fatal("no kernel time accounted")
	}
}

func TestAffinityMaskWideMachine(t *testing.T) {
	// 96 cores spans two allowedMask words; the allowed set straddles the
	// word boundary so both words and the bit arithmetic are exercised.
	m := newTestMachine(96)
	allowed := []int{3, 17, 63, 64, 70, 95}
	p := m.AddProcess("wide", nil, CPUSet, allowed)
	inSet := make(map[int]bool, len(allowed))
	for _, id := range allowed {
		inSet[id] = true
	}
	for id := 0; id < len(m.Cores); id++ {
		if got := p.allowedHas(id); got != inSet[id] {
			t.Fatalf("allowedHas(%d) = %v, want %v", id, got, inSet[id])
		}
	}

	for i := 0; i < 10; i++ {
		analyticSyscalls(m, p, i+1, 200_000, 0)
	}
	m.Run(200 * simtime.Millisecond)

	var busyAllowed simtime.Duration
	for id, c := range m.Cores {
		if inSet[id] {
			busyAllowed += c.BusyNS
			continue
		}
		if c.BusyNS != 0 || c.Switches != 0 {
			t.Errorf("core %d outside the mapped set ran work (busy=%v switches=%d)", id, c.BusyNS, c.Switches)
		}
	}
	if busyAllowed == 0 {
		t.Fatal("no work ran on the mapped core set")
	}
	// Oversubscribed (10 threads on 6 cores): the high-word cores must be
	// usable, not just the low word.
	var busyHigh simtime.Duration
	for _, id := range []int{64, 70, 95} {
		busyHigh += m.Cores[id].BusyNS
	}
	if busyHigh == 0 {
		t.Fatal("cores in the second mask word never ran work")
	}
}
