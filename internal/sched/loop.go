package sched

import (
	"fmt"

	"exist/internal/binary"
	"exist/internal/ipt"
	"exist/internal/simtime"
)

// branchEmitter delivers a walker's batched branch events to the core's PT
// tracer and the machine-wide listener. One lives inside each Core and is
// repointed at segment start, so installing a sink allocates nothing.
type branchEmitter struct {
	tracer   *ipt.Tracer
	listener BranchListener
	thread   *Thread
	now      simtime.Time
	tracerOn bool
}

// EmitBranches implements binary.BranchSink: the tracer consumes
// conditional directions straight from the walker's TNT pack.
func (e *branchEmitter) EmitBranches(evs []binary.BranchEvent, tnt *binary.TNTPack) {
	if e.tracerOn {
		e.tracer.OnBranchBatch(e.now, evs, tnt)
	}
	if e.listener != nil {
		for i := range evs {
			e.listener(e.thread, e.now, evs[i])
		}
	}
}

// setCur installs t (or nil) as the core's running thread, maintaining the
// occupancy counters consulted by interference. Every mutation of
// c.cur must go through here.
func (m *Machine) setCur(c *Core, t *Thread) {
	if old := c.cur; old != nil {
		m.running--
		old.Proc.running--
	}
	c.cur = t
	if t != nil {
		m.running++
		t.Proc.running++
	}
}

// enqueue makes t runnable and places it on a core's runqueue.
func (m *Machine) enqueue(t *Thread, now simtime.Time) {
	if t.queued || t.State == Running {
		return
	}
	t.State = Runnable
	t.queued = true
	coreID := m.pickCore(t)
	if t.lastCore >= 0 && coreID != t.lastCore {
		t.Stats.Migrations++
		m.Stats.Migrations++
	}
	t.lastCore = coreID
	c := m.Cores[coreID]
	c.runq = append(c.runq, t)
	m.kickDispatch(c, now)
}

// requeueLocal puts a preempted thread back at the tail of its own core's
// queue (no migration).
func (m *Machine) requeueLocal(c *Core, t *Thread) {
	t.State = Runnable
	t.queued = true
	c.runq = append(c.runq, t)
}

// pickCore selects a core for a waking thread: last-core affinity first,
// then any idle allowed core, then the least-loaded allowed core.
// Membership in the mapped core set is a bitmask test (Process.allowedHas)
// and the affinity core's load is computed once and reused for the
// tie-break, so waking costs no core-set scan.
func (m *Machine) pickCore(t *Thread) int {
	affine := t.lastCore >= 0 && t.Proc.allowedHas(t.lastCore)
	if affine && len(m.Cores[t.lastCore].runq) == 0 {
		// Wake-affinity: stay on the cache-hot core unless it is
		// meaningfully loaded (CFS-like). This is also why CPU-share
		// processes "tend to execute on a few cores" (§5.2), which is
		// what makes UMA's core sampling cheap.
		return t.lastCore
	}
	best, bestLoad := -1, 1<<30
	for _, id := range t.Proc.Allowed {
		c := m.Cores[id]
		load := len(c.runq)
		if c.cur != nil {
			load++
		}
		if load == 0 {
			return id
		}
		if load < bestLoad {
			bestLoad, best = load, id
		}
	}
	// Prefer affinity on load ties.
	if affine {
		c := m.Cores[t.lastCore]
		load := len(c.runq)
		if c.cur != nil {
			load++
		}
		if load <= bestLoad {
			return t.lastCore
		}
	}
	return best
}

// kickDispatch arranges for the core to pick new work at the given time.
func (m *Machine) kickDispatch(c *Core, at simtime.Time) {
	if c.dispatchPending || c.cur != nil {
		return
	}
	c.dispatchPending = true
	if c.dispatchFn == nil {
		c.dispatchFn = func(now simtime.Time) {
			c.dispatchPending = false
			m.dispatch(c, now)
		}
	}
	m.Eng.ScheduleDetached(at, c.dispatchFn)
}

// dispatch picks the next thread for an idle core, or completes the
// transition to the idle task.
func (m *Machine) dispatch(c *Core, now simtime.Time) {
	if c.cur != nil {
		return
	}
	if len(c.runq) == 0 {
		if c.prev != nil {
			m.contextSwitch(c, nil, now)
		}
		return
	}
	// Shift in place rather than re-slicing past the head, so the
	// backing array keeps its capacity and enqueue never reallocates.
	next := c.runq[0]
	n := copy(c.runq, c.runq[1:])
	c.runq[n] = nil
	c.runq = c.runq[:n]
	next.queued = false
	m.contextSwitch(c, next, now)
}

// contextSwitch performs the sched_switch from the core's previous thread
// to next (nil = idle), charging switch cost and hook costs, firing the
// tracepoint hooks, and informing the core's PT tracer of the CR3 change.
func (m *Machine) contextSwitch(c *Core, next *Thread, now simtime.Time) {
	prev := c.prev
	if prev == next && next != nil {
		// Same thread resuming: not a switch.
		m.setCur(c, next)
		next.State = Running
		m.startSegment(c, next, now)
		return
	}
	cost := m.Cfg.Cost.ContextSwitch
	ev := SwitchEvent{Now: now, Core: c, Prev: prev, Next: next}
	for _, h := range m.SwitchHooks {
		cost += h(ev)
	}
	c.KernelNS += cost
	c.Switches++
	m.Stats.Switches++
	m.recordSwitchPeriods(c, next, now)
	c.prev = next
	if next == nil {
		// Hardware sees the kernel/idle address space.
		c.Tracer.ContextSwitch(now+cost, 0, 0)
		return
	}
	c.Tracer.ContextSwitch(now+cost, next.Proc.CR3, next.Exec.CurrentIP())
	next.State = Running
	next.Stats.Switches++
	// The switch cost delays the incoming thread; charging it there makes
	// per-switch tracing control visible in the thread's CPI.
	next.Stats.KernelTime += cost
	next.lastCore = c.ID
	m.setCur(c, next)
	m.startSegment(c, next, now+cost)
}

// recordSwitchPeriods samples the Figure 8 distributions.
func (m *Machine) recordSwitchPeriods(c *Core, next *Thread, now simtime.Time) {
	if !m.Cfg.CollectSwitchPeriods {
		return
	}
	if m.lastSwitchAt > 0 {
		m.Stats.SwitchPeriodsAll = append(m.Stats.SwitchPeriodsAll, (now - m.lastSwitchAt).Millis())
	}
	m.lastSwitchAt = now
	if c.lastSwitchAt > 0 {
		m.Stats.SwitchPeriodsByCore = append(m.Stats.SwitchPeriodsByCore, (now - c.lastSwitchAt).Millis())
	}
	c.lastSwitchAt = now
	if next != nil {
		p := next.Proc
		if p.lastSwitchAt > 0 {
			m.Stats.SwitchPeriodsByProc = append(m.Stats.SwitchPeriodsByProc, (now - p.lastSwitchAt).Millis())
		}
		p.lastSwitchAt = now
	}
}

// interference computes the execution inflation for a segment starting on
// core c: hyperthread-sibling contention, time-sharing pollution, and LLC
// sharing with other processes (the machine is one cache domain).
func (m *Machine) interference(c *Core, t *Thread) float64 {
	cost := m.Cfg.Cost
	f := 1.0
	if c.Sibling >= 0 && c.Sibling < len(m.Cores) && m.Cores[c.Sibling].cur != nil {
		f *= cost.HTShare
	}
	if len(c.runq) > 0 {
		f *= cost.CoreShare
	}
	// "Another process runs in my cache domain": c itself runs t at this
	// point, so it contributes one to both counters and cancels; any
	// positive difference is a core in the domain running a different
	// process. O(1) instead of a scan over all cores.
	if m.running-t.Proc.running > 0 {
		f *= cost.LLCShare
	}
	return f
}

// startSegment runs one bounded execution segment for the core's current
// thread and schedules its completion.
func (m *Machine) startSegment(c *Core, t *Thread, now simtime.Time) {
	factor := m.interference(c, t)
	rate := m.Cfg.Cost.FrequencyGHz / factor
	tracingActive := c.Tracer.Enabled() && c.Tracer.ContextOn()

	var sink binary.BranchSink
	if tracingActive || m.Listener != nil {
		c.emitter = branchEmitter{
			tracer:   c.Tracer,
			listener: m.Listener,
			thread:   t,
			now:      now,
			tracerOn: tracingActive,
		}
		sink = &c.emitter
	}

	c.runCtx = RunContext{
		Core:          c,
		Start:         now,
		MaxNS:         m.Cfg.Timeslice,
		CyclesPerNS:   rate,
		TracingActive: tracingActive,
		Sink:          sink,
	}
	res := t.Exec.Run(&c.runCtx)
	if res.UsedNS <= 0 {
		panic(fmt.Sprintf("sched: exec for %s returned non-positive segment", t.Proc.Name))
	}
	if res.BulkCond+res.BulkInd > 0 && tracingActive {
		c.Tracer.OnBulkBranches(now, res.BulkCond, res.BulkInd)
	}

	var stall simtime.Duration
	for _, h := range m.StallHooks {
		stall += h(c, now, res.UsedNS)
	}
	c.BusyNS += res.UsedNS
	c.KernelNS += stall
	// Stalls (sampling interrupts, trace hauling) interrupt the running
	// thread, so they surface in its CPI like any other kernel time.
	t.Stats.KernelTime += stall
	t.Stats.CPUTime += res.UsedNS
	t.Stats.Cycles += res.Cycles
	t.Stats.Insns += res.Insns
	t.Stats.Branches += res.Branches

	c.pendThread = t
	c.pendRes = res
	if c.segEndFn == nil {
		c.segEndFn = func(end simtime.Time) {
			pt := c.pendThread
			c.pendThread = nil
			m.segmentEnd(c, pt, c.pendRes, end)
		}
	}
	m.Eng.ScheduleDetached(now+res.UsedNS+stall, c.segEndFn)
}

// segmentEnd handles a completed segment: syscall processing, blocking,
// preemption, or continuation.
func (m *Machine) segmentEnd(c *Core, t *Thread, res RunResult, now simtime.Time) {
	if c.cur != t {
		panic("sched: segment completion for a thread no longer on its core")
	}
	m.setCur(c, nil)

	if res.Stop == binary.StopSyscall {
		spec := m.Syscall(res.SyscallClass)
		if m.EmitPTWrites {
			c.Tracer.PTWrite(now, uint64(res.SyscallClass))
		}
		cost := spec.Cost + m.Cfg.Cost.SyscallBase
		ev := SyscallEvent{Now: now, Core: c, Thread: t, Class: res.SyscallClass}
		for _, h := range m.SyscallHooks {
			cost += h(ev)
		}
		c.KernelNS += cost
		t.Stats.KernelTime += cost
		t.Stats.Syscalls++

		if t.rng.Bool(spec.BlockProb) {
			dur := spec.BlockDuration(t.rng)
			t.State = Blocked
			if t.wakeFn == nil {
				t.wakeFn = func(wake simtime.Time) {
					m.enqueue(t, wake)
				}
			}
			m.Eng.ScheduleDetached(now+cost+dur, t.wakeFn)
			m.kickDispatch(c, now+cost)
			return
		}
		// Non-blocking syscall: return to user mode; syscall exit is a
		// natural preemption point when others wait.
		if len(c.runq) > 0 {
			m.requeueLocal(c, t)
			m.kickDispatch(c, now+cost)
			return
		}
		m.setCur(c, t)
		m.startSegment(c, t, now+cost)
		return
	}

	// Timeslice exhausted.
	if len(c.runq) > 0 {
		m.requeueLocal(c, t)
		m.kickDispatch(c, now)
		return
	}
	m.setCur(c, t)
	m.startSegment(c, t, now)
}
