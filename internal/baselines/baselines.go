// Package baselines implements the comparison tracing schemes of the
// paper's evaluation (Table 2) over the same simulated substrate EXIST
// runs on:
//
//   - Oracle: normal execution without tracing.
//   - StaSam: statistical sampling (perf record -a -F 3999) — a 4 kHz
//     per-core interrupt whose handler unwinds a stack and appends an
//     event record.
//   - EBPF: tracepoint tracing (bpftrace sys_enter) — a probe program on
//     every syscall, system-wide.
//   - NHT: native hardware tracing (perf record -e intel_pt) — tracers on
//     every core with no CR3 filter, control MSR operations at every
//     context switch, and continuous hauling of the AUX buffer to its
//     output file while the workload runs.
//
// Each scheme attaches through the same scheduler hook points EXIST uses,
// so overhead differences come only from what the schemes do — the paper's
// comparison, reproduced structurally.
package baselines

import (
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Oracle is the no-tracing reference.
type Oracle struct{}

// Name implements tracer.Backend.
func (Oracle) Name() string { return "Oracle" }

// Attach implements tracer.Backend (no hooks).
func (Oracle) Attach(*sched.Machine, *sched.Process) error { return nil }

// Stop implements tracer.Backend.
func (Oracle) Stop(simtime.Time) {}

// SpaceMB implements tracer.Backend.
func (Oracle) SpaceMB() float64 { return 0 }

// StaSam models statistical sampling: perf record -a -F <freq>.
type StaSam struct {
	// FreqHz is the per-core sampling frequency (the paper uses 3999).
	FreqHz float64
	// SampleBytes is the on-disk size of one sample record with its
	// callchain (perf.data records run a few hundred bytes).
	SampleBytes float64

	active  bool
	samples float64
}

// NewStaSam returns the paper's configuration.
func NewStaSam() *StaSam { return &StaSam{FreqHz: 3999, SampleBytes: 550} }

// Name implements tracer.Backend.
func (s *StaSam) Name() string { return "StaSam" }

// Attach implements tracer.Backend: a stall on every execution segment
// equal to the expected number of sampling interrupts times the handler
// cost.
func (s *StaSam) Attach(m *sched.Machine, _ *sched.Process) error {
	s.active = true
	cost := m.Cfg.Cost
	m.StallHooks = append(m.StallHooks, func(_ *sched.Core, _ simtime.Time, dur simtime.Duration) simtime.Duration {
		if !s.active {
			return 0
		}
		n := dur.Seconds() * s.FreqHz
		s.samples += n
		return simtime.Duration(n * float64(cost.Interrupt+cost.SampleHandler))
	})
	return nil
}

// Stop implements tracer.Backend.
func (s *StaSam) Stop(simtime.Time) { s.active = false }

// SpaceMB implements tracer.Backend.
func (s *StaSam) SpaceMB() float64 { return s.samples * s.SampleBytes / (1 << 20) }

// EBPF models bpftrace attached to the sys_enter tracepoint.
type EBPF struct {
	// EventBytes is the per-event output record size.
	EventBytes float64
	// PerturbFrac is the system-wide execution stall imposed by the
	// bpftrace userspace side (map draining, output formatting, ring
	// consumption) competing for the shared cores — the reason eBPF
	// tracing hurts even syscall-light workloads in shared nodes
	// (Figure 13's ~4% on SPEC).
	PerturbFrac float64

	active bool
	events int64
}

// NewEBPF returns the paper's configuration.
func NewEBPF() *EBPF { return &EBPF{EventBytes: 16, PerturbFrac: 0.035} }

// Name implements tracer.Backend.
func (e *EBPF) Name() string { return "eBPF" }

// Attach implements tracer.Backend: a probe cost on every syscall,
// system-wide (tracepoint programs see every process), plus the
// userspace perturbation stall.
func (e *EBPF) Attach(m *sched.Machine, _ *sched.Process) error {
	e.active = true
	cost := m.Cfg.Cost
	m.SyscallHooks = append(m.SyscallHooks, func(sched.SyscallEvent) simtime.Duration {
		if !e.active {
			return 0
		}
		e.events++
		return cost.SyscallProbe
	})
	m.StallHooks = append(m.StallHooks, func(_ *sched.Core, _ simtime.Time, dur simtime.Duration) simtime.Duration {
		if !e.active {
			return 0
		}
		return simtime.Duration(float64(dur) * e.PerturbFrac)
	})
	return nil
}

// Stop implements tracer.Backend.
func (e *EBPF) Stop(simtime.Time) { e.active = false }

// SpaceMB implements tracer.Backend.
func (e *EBPF) SpaceMB() float64 { return float64(e.events) * e.EventBytes / (1 << 20) }

// Events returns the probe hit count.
func (e *EBPF) Events() int64 { return e.events }

// NHT models native hardware tracing: perf record -e intel_pt. Every
// core's tracer runs with no CR3 filter (full-system coverage), per-switch
// sideband processing reprograms the control MSR with tracing disabled,
// and the AUX buffer is hauled to the output file continuously.
type NHT struct {
	// RingBytes is each core's AUX ring capacity in real bytes.
	RingBytes int64
	// Scale is the run's execution scale: the fraction of the real branch
	// rate the workload models materialize. Analytic (efficiency) runs
	// produce full-rate trace volume, so they use 1; walker (accuracy)
	// runs use the slow-motion factor their WalkerExec was built with.
	Scale float64
	// CollectTarget, when non-nil after Attach, restricts *collection*
	// to the target via the CR3 filter while still paying full-system
	// control costs. The paper's accuracy reference uses this; the
	// efficiency runs use nil (trace everything).
	FilterTarget bool

	m          *sched.Machine
	bus        *kernel.MSRBus
	active     bool
	rings      []*ipt.ToPA
	hauledByte []int64
	log        kernel.SwitchLog
	target     *sched.Process
	start      simtime.Time
}

// NewNHT returns a full-system configuration at the given space scale.
func NewNHT(scale float64) *NHT {
	return &NHT{RingBytes: 4 << 30, Scale: scale}
}

// Name implements tracer.Backend.
func (n *NHT) Name() string { return "NHT" }

// Attach implements tracer.Backend.
func (n *NHT) Attach(m *sched.Machine, target *sched.Process) error {
	n.m = m
	n.target = target
	n.bus = kernel.NewMSRBus(m.Cfg.Cost)
	n.active = true
	n.start = m.Eng.Now()
	ctl := ipt.DefaultCtl() &^ ipt.CtlCR3Filter
	cr3 := uint64(0)
	if n.FilterTarget && target != nil {
		ctl |= ipt.CtlCR3Filter
		cr3 = target.CR3
	}
	// The ring wraps, so its capacity does not bound the space accounting
	// (Written counts all accepted bytes); cap the simulated allocation.
	ringSim := trace.ScaleBytes(n.RingBytes, n.Scale)
	if ringSim > 16<<20 {
		ringSim = 16 << 20
	}
	for _, c := range m.Cores {
		ring := ipt.NewToPA(ringSim, true)
		d, err := n.bus.ConfigureOutput(c.Tracer, ring, cr3)
		if err != nil {
			return err
		}
		c.KernelNS += d
		d, err = n.bus.Enable(m.Eng.Now(), c.Tracer, ctl)
		if err != nil {
			return err
		}
		c.KernelNS += d
		n.rings = append(n.rings, ring)
		n.hauledByte = append(n.hauledByte, 0)
	}
	// Per-switch sideband: conventional control reprograms the tracer
	// with tracing disabled at every context switch, plus the perf
	// user/kernel round trip for the sideband record.
	m.SwitchHooks = append(m.SwitchHooks, func(ev sched.SwitchEvent) simtime.Duration {
		if !n.active {
			return 0
		}
		tr := ev.Core.Tracer
		var cost simtime.Duration
		d, _ := n.bus.Disable(ev.Now, tr)
		cost += d
		d, _ = n.bus.Enable(ev.Now+cost, tr, ctl)
		cost += d
		cost += 2 * m.Cfg.Cost.ModeSwitch
		if n.target != nil {
			if ev.Prev != nil && ev.Prev.Proc == n.target {
				n.log.Add(kernel.SwitchRecord{TS: ev.Now, CPU: int32(ev.Core.ID),
					PID: int32(n.target.PID), TID: int32(ev.Prev.TID), Op: kernel.OpOut})
			}
			if ev.Next != nil && ev.Next.Proc == n.target {
				n.log.Add(kernel.SwitchRecord{TS: ev.Now, CPU: int32(ev.Core.ID),
					PID: int32(n.target.PID), TID: int32(ev.Next.TID), Op: kernel.OpIn})
			}
		}
		return cost
	})
	// Continuous AUX hauling: whatever the tracer produced during a
	// segment is copied out while the workload runs.
	m.StallHooks = append(m.StallHooks, func(c *sched.Core, _ simtime.Time, _ simtime.Duration) simtime.Duration {
		if !n.active {
			return 0
		}
		produced := c.Tracer.Stats.Bytes - n.hauledByte[c.ID]
		n.hauledByte[c.ID] = c.Tracer.Stats.Bytes
		mb := trace.UnscaleMB(produced, n.Scale)
		return simtime.Duration(mb * float64(m.Cfg.Cost.TraceHaulPerMB))
	})
	return nil
}

// Stop implements tracer.Backend: disable all tracers.
func (n *NHT) Stop(now simtime.Time) {
	if !n.active {
		return
	}
	n.active = false
	for _, c := range n.m.Cores {
		if c.Tracer.Enabled() {
			d, _ := n.bus.Disable(now, c.Tracer)
			c.KernelNS += d
		}
		c.Tracer.Flush()
	}
}

// SpaceMB implements tracer.Backend: time-proportional total trace volume.
func (n *NHT) SpaceMB() float64 {
	var written int64
	for _, r := range n.rings {
		written += r.Written()
	}
	return trace.UnscaleMB(written, n.Scale)
}

// Session exports the captured window as a trace.Session (the exhaustive
// reference the accuracy comparison decodes). Valid after Stop.
func (n *NHT) Session(workload string) *trace.Session {
	s := &trace.Session{
		ID:       "nht",
		Workload: workload,
		Start:    n.start,
		End:      n.m.Eng.Now(),
		Scale:    n.Scale,
		Switches: n.log,
	}
	if n.target != nil {
		s.PID = int32(n.target.PID)
	}
	for i, c := range n.m.Cores {
		s.Cores = append(s.Cores, trace.ReadOut(c.ID, n.rings[i]))
	}
	return s
}

// MSROps reports control operations issued (for the ablation tables).
func (n *NHT) MSROps() int64 { return n.bus.Ops }
