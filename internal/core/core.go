// Package core implements EXIST's node-level tracing system: the
// Operation-aware Tracing Controller (OTC, §3.2 of the paper) and the
// session facade that ties it to the Usage-aware Memory Allocator
// (package memalloc) and to the cluster-level coverage optimizer (package
// coverage).
//
// OTC's design in one paragraph: conventional hardware-tracing control
// reprograms the PT MSRs at every context switch (per-thread buffers must
// be swapped with tracing disabled), costing O(#switches) serializing MSR
// operations. OTC instead (1) configures a per-core buffer and the CR3
// filter once, before the window starts; (2) injects a sched_switch hook
// that enables a core's tracer the *first* time the target process is
// scheduled onto it and never touches it again — scheduling out is handled
// for free by the hardware CR3 filter; (3) bounds the window with a
// high-resolution timer whose expiry disables the tracers of all touched
// cores. Control cost thus drops from O(#switches) to O(#cores), entirely
// in kernel mode.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/memalloc"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/xrand"
)

// DropPolicy selects the buffer-full behaviour.
type DropPolicy int

const (
	// DropStop is EXIST's compulsory tracing: the STOP bit ends output
	// when the buffer fills, keeping the data nearest the anomaly.
	DropStop DropPolicy = iota
	// DropRing is the conventional ring buffer (REPT-style), kept for the
	// ablation benchmarks.
	DropRing
)

// BufferMode selects per-core (EXIST) or per-thread (conventional,
// ablation-only) buffer ownership.
type BufferMode int

const (
	// PerCore gives each traced core one fixed buffer (no control
	// operations at context switches).
	PerCore BufferMode = iota
	// PerThread swaps buffers at every context switch of the target,
	// paying the disable/reprogram/enable MSR sequence each time. It
	// exists to quantify what OTC saves.
	PerThread
)

// ErrTracerBusy is returned (wrapped) by Controller.Trace when a planned
// core's tracer is already enabled by another session's window. It is
// transient: the tracer frees when that window closes.
var ErrTracerBusy = errors.New("core: tracer already in use")

// InsmodCost is the one-time kernel-module load cost on the core that
// performs it (the startup spike of Figure 17).
const InsmodCost = 15 * simtime.Millisecond

// Config parameterizes one tracing session.
type Config struct {
	// Period is the tracing window (0.1-2 s in the paper).
	Period simtime.Duration
	// Mem configures the memory allocator.
	Mem memalloc.Config
	// Scale is the space scale (see trace.SpaceScale); 1 means unscaled.
	Scale float64
	// Ctl is the PT control configuration; zero selects ipt.DefaultCtl.
	Ctl uint64
	// Drop selects the buffer-full policy.
	Drop DropPolicy
	// Buffers selects per-core or per-thread buffers.
	Buffers BufferMode
	// HotSwap, with PerThread buffers, uses the hypothetical §6.1
	// hot-switching extension (one register write per swap) instead of
	// the disable/reprogram/enable sequence. Ablation-only.
	HotSwap bool
	// SessionID and Node label the session for the cluster pipeline.
	SessionID, Node string
	// Seed drives the coreset sampler.
	Seed uint64
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		Period: 500 * simtime.Millisecond,
		Mem:    memalloc.DefaultConfig(),
		Scale:  1,
		Ctl:    ipt.DefaultCtl(),
		Seed:   1,
	}
}

// Stats summarizes a session's control-path behaviour — the quantities
// OTC exists to minimize.
type Stats struct {
	// MSROps counts MSR writes issued during the window (setup included).
	MSROps int64 `obs:"msr_ops,count"`
	// EnabledCores counts cores whose tracer was ever enabled.
	EnabledCores int `obs:"enabled_cores,count"`
	// PlannedCores is the traced core set size.
	PlannedCores int `obs:"planned_cores,count"`
	// SwitchRecords counts five-tuple records written.
	SwitchRecords int64 `obs:"switch_records,count"`
	// ControlKernelNS is the total kernel time charged for control
	// operations (setup, per-switch hook work, teardown).
	ControlKernelNS simtime.Duration `obs:"control_kernel,ns"`
	// BufferSwaps counts per-thread buffer swap sequences (PerThread
	// mode only).
	BufferSwaps int64 `obs:"buffer_swaps,count"`
}

// Session is one bounded intra-service tracing window on one node.
type Session struct {
	// Target is the traced process.
	Target *sched.Process
	// Cfg is the session configuration.
	Cfg Config
	// Plan is the memory allocator's decision.
	Plan memalloc.Plan
	// Start and End bound the window (End is set when the HRT fires).
	Start, End simtime.Time
	// Stats is the control-path accounting.
	Stats Stats

	ctrl     *Controller
	bus      *kernel.MSRBus
	hrt      *kernel.HRT
	active   bool
	finished bool
	log      kernel.SwitchLog
	topas    []*ipt.ToPA       // by core ID; nil for an unplanned core
	perThr   map[int]*ipt.ToPA // PerThread mode: tid -> buffer
	result   *trace.Session
	onDone   []func(*Session)
}

// Active reports whether the window is still open.
func (s *Session) Active() bool { return s.active }

// Controller is the node-level EXIST facade: it owns the kernel hook and
// multiplexes sessions over it.
type Controller struct {
	m        *sched.Machine
	insmodAt simtime.Time
	insmod   bool
	// sessions are the open sessions the sched_switch hook serves, in
	// open order; stop removes a session when its window closes.
	sessions []*Session
}

// NewController attaches EXIST to a machine. The sched_switch hook is
// injected once; it is inert while no session is active.
func NewController(m *sched.Machine) *Controller {
	c := &Controller{m: m}
	m.SwitchHooks = append(m.SwitchHooks, c.onSwitch)
	return c
}

// Insmod models loading the kernel module: a one-time CPU spike on core 0
// (Figure 17's startup cost). It is idempotent.
func (c *Controller) Insmod() {
	if c.insmod {
		return
	}
	c.insmod = true
	c.insmodAt = c.m.Eng.Now()
	c.m.Cores[0].KernelNS += InsmodCost
}

// Trace opens a tracing session on target. Buffer configuration costs are
// charged to the traced cores immediately; the window closes by HRT after
// cfg.Period, disabling every touched tracer.
func (c *Controller) Trace(target *sched.Process, cfg Config) (*Session, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("core: non-positive tracing period %v", cfg.Period)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Ctl == 0 {
		cfg.Ctl = ipt.DefaultCtl()
	}
	c.Insmod()
	now := c.m.Eng.Now()
	s := &Session{
		Target: target,
		Cfg:    cfg,
		Start:  now,
		ctrl:   c,
		bus:    kernel.NewMSRBus(c.m.Cfg.Cost),
		active: true,
		topas:  make([]*ipt.ToPA, len(c.m.Cores)),
	}
	if cfg.Buffers == PerThread {
		s.perThr = make(map[int]*ipt.ToPA)
	}
	rng := xrand.Split(cfg.Seed, "core/coreset")
	s.Plan = memalloc.PlanBuffers(c.m, target, cfg.Mem, rng)
	s.Stats.PlannedCores = len(s.Plan.Cores)

	// A busy tracer fails the open before any core is reprogrammed.
	for _, cp := range s.Plan.Cores {
		if c.m.Cores[cp.Core].Tracer.Enabled() {
			return nil, fmt.Errorf("%w (core %d)", ErrTracerBusy, cp.Core)
		}
	}
	// Configure every planned core's tracer up front: output chain and
	// CR3 filter. These are the only per-core MSR writes besides the
	// single enable on first schedule-in and the single disable at HRT
	// expiry.
	for _, cp := range s.Plan.Cores {
		tr := c.m.Cores[cp.Core].Tracer
		topa := ipt.NewSingleToPA(trace.ScaleBytes(cp.BufBytes, cfg.Scale))
		if cfg.Drop == DropRing {
			topa = ipt.NewToPA([]int{trace.ScaleBytes(cp.BufBytes, cfg.Scale)}, true)
		}
		d, err := s.bus.ConfigureOutput(tr, topa, target.CR3)
		if err != nil {
			return nil, fmt.Errorf("core: configure core %d: %w", cp.Core, err)
		}
		c.m.Cores[cp.Core].KernelNS += d
		s.Stats.ControlKernelNS += d
		s.topas[cp.Core] = topa
	}

	// Bound the window with a high-resolution timer.
	var armCost simtime.Duration
	s.hrt, armCost = kernel.ArmHRT(c.m.Eng, cfg.Period, c.m.Cfg.Cost.TimerProgram,
		func(at simtime.Time) { s.stop(at) })
	c.m.Cores[0].KernelNS += armCost
	s.Stats.ControlKernelNS += armCost

	c.sessions = append(c.sessions, s)
	return s, nil
}

// onSwitch is the kernel hooker: EXIST's sched_switch tracepoint body.
// It runs purely in kernel mode (no user/kernel transitions).
func (c *Controller) onSwitch(ev sched.SwitchEvent) simtime.Duration {
	var cost simtime.Duration
	for _, s := range c.sessions {
		if !s.active {
			continue
		}
		cost += s.onSwitch(ev)
	}
	return cost
}

// onSwitch handles one switch for one session.
func (s *Session) onSwitch(ev sched.SwitchEvent) simtime.Duration {
	var cost simtime.Duration
	costModel := s.ctrl.m.Cfg.Cost

	// Five-tuple records for both directions involving the target.
	if ev.Prev != nil && ev.Prev.Proc == s.Target {
		s.log.Add(kernel.SwitchRecord{TS: ev.Now, CPU: int32(ev.Core.ID),
			PID: int32(s.Target.PID), TID: int32(ev.Prev.TID), Op: kernel.OpOut})
		s.Stats.SwitchRecords++
		cost += costModel.SwitchRecord
	}
	if ev.Next == nil || ev.Next.Proc != s.Target {
		// Scheduled out (or unrelated): OTC deliberately does nothing —
		// the CR3 filter suppresses unrelated output at zero cost.
		return cost
	}
	s.log.Add(kernel.SwitchRecord{TS: ev.Now, CPU: int32(ev.Core.ID),
		PID: int32(s.Target.PID), TID: int32(ev.Next.TID), Op: kernel.OpIn})
	s.Stats.SwitchRecords++
	cost += costModel.SwitchRecord

	tr := ev.Core.Tracer
	topa := s.topas[ev.Core.ID]
	if topa == nil {
		return cost
	}

	if s.perThr != nil {
		// Ablation: conventional per-thread buffers — swap at every
		// schedule-in, paying the full disable/reprogram/enable dance.
		buf := s.perThr[ev.Next.TID]
		if buf == nil {
			size := int64(float64(topa.Capacity()) / float64(max(1, len(s.Target.Threads))))
			if size < 256 {
				size = 256
			}
			buf = ipt.NewSingleToPA(int(size))
			s.perThr[ev.Next.TID] = buf
		}
		if s.Cfg.HotSwap && tr.Enabled() {
			cost += s.bus.SwapOutputHot(ev.Now, tr, buf)
			s.Stats.BufferSwaps++
			s.Stats.ControlKernelNS += cost
			return cost
		}
		d, err := s.bus.SwapOutput(ev.Now, tr, buf, s.Target.CR3)
		cost += d
		s.Stats.BufferSwaps++
		if err == nil && !tr.Enabled() {
			d, _ = s.bus.Enable(ev.Now+cost, tr, s.Cfg.Ctl)
			cost += d
		}
		s.Stats.ControlKernelNS += cost
		return cost
	}

	// OTC fast path: enable only on the first schedule-in per core.
	if !tr.Enabled() {
		d, err := s.bus.Enable(ev.Now, tr, s.Cfg.Ctl)
		cost += d
		if err == nil {
			s.Stats.EnabledCores++
		}
	}
	s.Stats.ControlKernelNS += cost
	return cost
}

// stop closes the window: the HRT expiry handler disables every enabled
// planned tracer (O(#cores) operations) and snapshots the result.
func (s *Session) stop(now simtime.Time) {
	if !s.active {
		return
	}
	s.active = false
	s.End = now
	// A closed session takes no more switches: the hook forgets it and
	// keeps the rest in open order. onSwitch never stops a session, so
	// this cannot run while the hook walks the list.
	c := s.ctrl
	i := slices.Index(c.sessions, s)
	c.sessions = slices.Delete(c.sessions, i, i+1)
	m := c.m
	for _, cp := range s.Plan.Cores {
		tr := m.Cores[cp.Core].Tracer
		if tr.Enabled() {
			// Remote cores are stopped via IPI: interrupt plus the MSR
			// write, charged to the stopped core.
			d, _ := s.bus.Disable(now, tr)
			m.Cores[cp.Core].KernelNS += d + m.Cfg.Cost.Interrupt
			s.Stats.ControlKernelNS += d + m.Cfg.Cost.Interrupt
		}
		tr.Flush()
	}
	s.Stats.MSROps = s.bus.Ops
	s.result = s.snapshot()
	s.finished = true
	for _, f := range s.onDone {
		f(s)
	}
}

// snapshot builds the session's trace.Session from the buffers.
func (s *Session) snapshot() *trace.Session {
	out := &trace.Session{
		ID:       s.Cfg.SessionID,
		Node:     s.Cfg.Node,
		Workload: s.Target.Name,
		PID:      int32(s.Target.PID),
		Start:    s.Start,
		End:      s.End,
		Scale:    s.Cfg.Scale,
		Switches: s.log,
	}
	for _, cp := range s.Plan.Cores {
		topa := s.topas[cp.Core]
		out.Cores = append(out.Cores, trace.CoreTrace{
			Core:         cp.Core,
			Data:         topa.Bytes(),
			Wrapped:      topa.Wrapped(),
			Stopped:      topa.Stopped(),
			DroppedBytes: topa.Dropped(),
		})
		topa.Release()
	}
	// Per-thread ablation buffers are appended as extra streams tagged
	// with a synthetic core ID (they are not per-core).
	tids := make([]int, 0, len(s.perThr))
	for tid := range s.perThr {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		buf := s.perThr[tid]
		out.Cores = append(out.Cores, trace.CoreTrace{
			Core:         1_000_000 + tid,
			Data:         buf.Bytes(),
			Stopped:      buf.Stopped(),
			DroppedBytes: buf.Dropped(),
		})
		buf.Release()
	}
	return out
}

// OnDone registers f to run when the window closes (the cluster layer
// uses this to upload the session to the object store).
func (s *Session) OnDone(f func(*Session)) { s.onDone = append(s.onDone, f) }

// Result returns the collected session after the window has closed.
func (s *Session) Result() (*trace.Session, error) {
	if !s.finished {
		return nil, fmt.Errorf("core: session still active (ends at %v)", s.Start+s.Cfg.Period)
	}
	return s.result, nil
}

// Cancel aborts an active session immediately.
func (s *Session) Cancel() {
	if s.active {
		s.hrt.Cancel()
		s.stop(s.ctrl.m.Eng.Now())
	}
}
