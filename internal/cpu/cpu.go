// Package cpu defines the processor cost model shared by every simulated
// substrate: how long the primitive operations of tracing and scheduling
// take, how fast cores execute, and how co-location on shared hardware
// (hyperthreads, physical cores, the last-level cache) inflates execution.
//
// The EXIST paper's efficiency arguments are entirely about *which* costly
// operations each tracing scheme performs and *how often* — MSR writes at
// every context switch versus once per core, sampling interrupts at 4 kHz,
// per-syscall probes, and per-megabyte trace hauling. The absolute values
// below are calibrated to public microarchitectural measurements (WRMSR is
// a serializing instruction costing on the order of a microsecond; a Linux
// context switch costs a few microseconds; a perf sampling NMI plus record
// writeout costs several microseconds) so that the relative overheads of
// the schemes land where the paper reports them.
package cpu

import "exist/internal/simtime"

// Model holds every primitive cost and rate the simulators charge.
// Durations are virtual nanoseconds (see package simtime).
type Model struct {
	// FrequencyGHz converts cycles to nanoseconds: ns = cycles / FrequencyGHz.
	// The paper's offline platform is a 2.9 GHz Ice Lake Xeon 8369B.
	FrequencyGHz float64

	// ContextSwitch is the base cost of a scheduler context switch
	// (runqueue manipulation, address-space switch, register state),
	// before any tracing hooks add to it.
	ContextSwitch simtime.Duration

	// MSRWrite is the cost of one WRMSR to an IA32_RTIT_* register.
	// WRMSR is serializing and drains the pipeline; on production parts
	// writes to the RTIT control MSRs cost roughly a microsecond. This is
	// the operation OTC exists to eliminate from the context-switch path.
	MSRWrite simtime.Duration

	// MSRRead is the cost of one RDMSR (cheaper than WRMSR, still
	// serialized against the trace engine).
	MSRRead simtime.Duration

	// ModeSwitch is the cost of one user/kernel privilege transition.
	// Conventional tracing control that consults user-level state pays two
	// of these per control action; OTC operates purely in kernel mode.
	ModeSwitch simtime.Duration

	// Interrupt is the base cost of taking an interrupt (NMI or timer),
	// excluding the handler body.
	Interrupt simtime.Duration

	// SampleHandler is the cost of a statistical-sampling handler body
	// (perf record: read counters, unwind a shallow stack, append an event
	// to the mmap ring). Charged per sample by the StaSam baseline.
	SampleHandler simtime.Duration

	// SyscallProbe is the cost of an attached kernel tracepoint program
	// (bpftrace sys_enter: program invocation, map update, output buffer
	// reservation). Charged per syscall by the eBPF baseline.
	SyscallProbe simtime.Duration

	// SyscallBase is the bare cost of a syscall entry/exit pair without
	// any probe attached.
	SyscallBase simtime.Duration

	// SwitchRecord is the cost of appending the 24-byte five-tuple
	// context-switch record EXIST's kernel hooker writes at sched_switch.
	SwitchRecord simtime.Duration

	// TimerProgram is the cost of (re)arming a high-resolution timer.
	TimerProgram simtime.Duration

	// TraceHaulPerMB is the cost, charged on the traced machine, of
	// hauling one megabyte of trace data from the hardware output buffer
	// to its destination file while the workload runs. Native hardware
	// tracing (perf intel_pt) pays this continuously, which is the largest
	// part of its overhead on branchy workloads. EXIST avoids it: traces
	// stay in the pinned cache-bypass buffer and are shipped after the
	// bounded tracing window ends.
	TraceHaulPerMB simtime.Duration

	// PTBranchOverhead is the fractional execution slowdown imposed by the
	// PT hardware itself while TraceEn=1 with BranchEn (packet generation
	// bandwidth stealing store ports and filling fill buffers), per unit of
	// branch density. The effective slowdown for a workload is
	// PTBranchOverhead * (branches per cycle) / referenceBranchDensity —
	// computed by the tracers from the workload profile.
	PTBranchOverhead float64

	// CYCPacketExtra is the additional fractional slowdown when
	// cycle-accurate packets (CYCEn) are enabled on top of BranchEn.
	CYCPacketExtra float64

	// HTShare is the multiplicative cycle inflation a thread suffers when
	// its hyperthread sibling is busy (two logical cores sharing one
	// physical core's execution resources).
	HTShare float64

	// CoreShare is the additional inflation when distinct workloads
	// time-share the same physical core set (cache/TLB pollution across
	// switches), applied per co-runner beyond the first.
	CoreShare float64

	// LLCShare is the inflation from sharing the last-level cache with an
	// active co-runner in the same LLC domain.
	LLCShare float64

	// TracingLLCFootprint is the fractional increase in LLC misses caused
	// by the tracing facility's own memory traffic (the paper measures
	// about 1.3% for hardware tracing with cache-bypass buffers).
	TracingLLCFootprint float64
}

// Default returns the calibrated cost model used by all experiments.
func Default() Model {
	return Model{
		FrequencyGHz:        2.9,
		ContextSwitch:       3 * simtime.Microsecond,
		MSRWrite:            1200 * simtime.Nanosecond,
		MSRRead:             400 * simtime.Nanosecond,
		ModeSwitch:          600 * simtime.Nanosecond,
		Interrupt:           1800 * simtime.Nanosecond,
		SampleHandler:       6 * simtime.Microsecond,
		SyscallProbe:        1500 * simtime.Nanosecond,
		SyscallBase:         500 * simtime.Nanosecond,
		SwitchRecord:        120 * simtime.Nanosecond,
		TimerProgram:        300 * simtime.Nanosecond,
		TraceHaulPerMB:      400 * simtime.Microsecond,
		PTBranchOverhead:    0.008,
		CYCPacketExtra:      0.002,
		HTShare:             1.28,
		CoreShare:           1.06,
		LLCShare:            1.10,
		TracingLLCFootprint: 0.013,
	}
}

// CyclesToNS converts a cycle count to virtual nanoseconds.
func (m Model) CyclesToNS(cycles int64) simtime.Duration {
	return simtime.Duration(float64(cycles) / m.FrequencyGHz)
}

// NSToCycles converts virtual nanoseconds to a cycle count.
func (m Model) NSToCycles(d simtime.Duration) int64 {
	return int64(float64(d) * m.FrequencyGHz)
}
