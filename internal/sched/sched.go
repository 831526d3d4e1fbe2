// Package sched is the node-level operating-system simulator: cores,
// processes, threads, runqueues, context switches, syscalls, and the
// tracepoints that tracing schemes hook.
//
// The simulator is a discrete-event model driven by a simtime.Engine.
// Threads execute in bounded segments (at most one scheduler timeslice);
// each segment consumes virtual CPU cycles from the thread's Exec model,
// optionally emitting the ground-truth branch stream into the core's PT
// tracer. Context switches, syscalls, and tracing control operations all
// charge kernel time to the core, which is how tracing overhead becomes
// workload slowdown — the paper's central quantity.
//
// Tracing schemes integrate exclusively through three hook points, mirroring
// how real schemes attach to a kernel:
//
//   - SwitchHooks run at every sched_switch and return extra kernel time
//     (MSR operations, buffer swaps, five-tuple records).
//   - SyscallHooks run at every syscall entry (eBPF-style probes).
//   - StallHooks stretch execution segments by a scheme-dependent amount
//     (sampling interrupts, PT packet bandwidth).
package sched

import (
	"fmt"

	"exist/internal/binary"
	"exist/internal/cpu"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// ProvisionMode is how a process is mapped to cores (§3.3 of the paper).
type ProvisionMode int

const (
	// CPUSet pins the process to a small exclusive core set.
	CPUSet ProvisionMode = iota
	// CPUShare maps the process onto a large shared core set.
	CPUShare
)

// String returns "cpu-set" or "cpu-share".
func (m ProvisionMode) String() string {
	if m == CPUSet {
		return "cpu-set"
	}
	return "cpu-share"
}

// Config parameterizes a Machine. Two properties are fixed rather than
// configured: every machine is one last-level-cache domain (all its cores
// share the LLC), and the Figure 8 sample slices start with capacity
// switchPeriodChunk (4096).
type Config struct {
	// Cores is the number of logical cores.
	Cores int
	// HTSiblings pairs core i with core i+Cores/2 on one physical core.
	HTSiblings bool
	// Timeslice is the scheduler quantum and the maximum run segment.
	Timeslice simtime.Duration
	// Cost is the processor cost model.
	Cost cpu.Model
	// Syscalls is the syscall table; nil selects kernel.DefaultSyscallTable.
	Syscalls []kernel.SyscallSpec
	// Seed drives all scheduling and execution randomness.
	Seed uint64
	// CollectSwitchPeriods enables the Figure 8 period sampling.
	CollectSwitchPeriods bool
}

// DefaultConfig returns a 16-core single-socket configuration with a 4 ms
// timeslice.
func DefaultConfig() Config {
	return Config{
		Cores:      16,
		HTSiblings: true,
		Timeslice:  4 * simtime.Millisecond,
		Cost:       cpu.Default(),
		Seed:       1,
	}
}

// ThreadState is a thread's scheduling state.
type ThreadState int

const (
	// Runnable threads are queued, waiting for a core.
	Runnable ThreadState = iota
	// Running threads occupy a core.
	Running
	// Blocked threads wait on I/O or synchronization.
	Blocked
)

// ThreadStats accumulates per-thread accounting.
type ThreadStats struct {
	// CPUTime is wall time spent executing on a core (user mode).
	CPUTime simtime.Duration `obs:"cpu_time,ns"`
	// KernelTime is syscall service time charged on the thread's behalf.
	KernelTime simtime.Duration `obs:"kernel_time,ns"`
	// Cycles, Insns, Branches count useful work retired.
	Cycles   int64 `obs:"cycles,count"`
	Insns    int64 `obs:"insns,count"`
	Branches int64 `obs:"branches,count"`
	// Syscalls counts syscall instructions executed.
	Syscalls int64 `obs:"syscalls,count"`
	// Switches counts times the thread was scheduled in.
	Switches int64 `obs:"switches,count"`
	// Migrations counts schedules onto a different core than last time.
	Migrations int64 `obs:"migrations,count"`
}

// Thread is one schedulable entity.
type Thread struct {
	// TID is the machine-unique thread ID.
	TID int
	// Proc is the owning process.
	Proc *Process
	// Exec produces the thread's execution.
	Exec Exec
	// State is the current scheduling state.
	State ThreadState
	// Stats accumulates accounting.
	Stats ThreadStats

	rng          *xrand.Rand
	lastCore     int
	lastSwitchAt simtime.Time
	queued       bool
	// wakeFn is the thread's cached blocking-syscall wakeup callback; a
	// thread blocks on at most one syscall at a time.
	wakeFn func(wake simtime.Time)
}

// LastCore returns the core the thread most recently ran on (-1 before
// its first dispatch). UMA's coreset sampler uses it as the "current
// core" signal.
func (t *Thread) LastCore() int { return t.lastCore }

// Process is a group of threads sharing an address space (one CR3) and a
// CPU provisioning policy. It is the unit EXIST traces.
type Process struct {
	// PID is the machine-unique process ID.
	PID int
	// Name identifies the workload.
	Name string
	// CR3 is the address-space root, the PT filter key.
	CR3 uint64
	// Prog is the process image (may be nil for analytic workloads).
	Prog *binary.Program
	// Mode is the CPU provisioning mode.
	Mode ProvisionMode
	// Allowed is the mapped core set (MCS).
	Allowed []int
	// Threads lists the process's threads.
	Threads []*Thread

	lastSwitchAt simtime.Time
	// allowedMask is the Allowed core set as a bitmask (one uint64 word
	// per 64 cores), so affinity checks cost one load instead of a scan.
	allowedMask []uint64
	// running counts the cores currently running one of this process's
	// threads; see Machine.interference.
	running int32
}

// allowedHas reports whether core id is in the process's mapped core set.
func (p *Process) allowedHas(id int) bool {
	return p.allowedMask[id>>6]&(1<<(uint(id)&63)) != 0
}

// Stats aggregates the process's thread statistics.
func (p *Process) Stats() ThreadStats {
	var s ThreadStats
	for _, t := range p.Threads {
		s.CPUTime += t.Stats.CPUTime
		s.KernelTime += t.Stats.KernelTime
		s.Cycles += t.Stats.Cycles
		s.Insns += t.Stats.Insns
		s.Branches += t.Stats.Branches
		s.Syscalls += t.Stats.Syscalls
		s.Switches += t.Stats.Switches
		s.Migrations += t.Stats.Migrations
	}
	return s
}

// CPI returns the process's achieved cycles-per-instruction, counting
// kernel time as extra cycles on the retired instruction stream — the
// hardware-perspective overhead metric of Figure 15.
func (p *Process) CPI(cost cpu.Model) float64 {
	s := p.Stats()
	if s.Insns == 0 {
		return 0
	}
	wallCycles := cost.NSToCycles(s.CPUTime + s.KernelTime)
	return float64(wallCycles) / float64(s.Insns)
}

// Core is one logical CPU.
type Core struct {
	// ID is the core index.
	ID int
	// Sibling is the hyperthread sibling core index (-1 if none).
	Sibling int
	// Tracer is the core's PT engine.
	Tracer *ipt.Tracer

	m    *Machine
	cur  *Thread
	prev *Thread
	runq []*Thread

	// emitter is the core's reusable branch-batch sink and runCtx the
	// reusable exec context; startSegment repoints them at the segment's
	// thread so segments allocate nothing. (Passing a stack RunContext
	// through the Exec interface would escape it to the heap per segment.)
	emitter branchEmitter
	runCtx  RunContext

	// segEndFn/dispatchFn are the core's cached timer callbacks, created
	// once on first use: a core runs at most one segment and has at most
	// one dispatch pending at a time, so the pending segment's state can
	// live on the core (pendThread/pendRes) instead of in a fresh closure
	// per segment — the scheduler's former dominant allocation.
	segEndFn   func(now simtime.Time)
	dispatchFn func(now simtime.Time)
	pendThread *Thread
	pendRes    RunResult

	dispatchPending bool
	lastSwitchAt    simtime.Time

	// BusyNS is wall time spent executing user work.
	BusyNS simtime.Duration
	// KernelNS is wall time spent in switches, syscalls, and hooks.
	KernelNS simtime.Duration
	// Switches counts context switches on this core.
	Switches int64
}

// Current returns the running thread (nil when idle).
func (c *Core) Current() *Thread { return c.cur }

// SwitchEvent is passed to sched_switch hooks.
type SwitchEvent struct {
	// Now is the tracepoint time.
	Now simtime.Time
	// Core is where the switch happens.
	Core *Core
	// Prev and Next are the outgoing and incoming threads; nil means the
	// idle task.
	Prev, Next *Thread
}

// SyscallEvent is passed to syscall-entry hooks.
type SyscallEvent struct {
	// Now is the entry time.
	Now simtime.Time
	// Core is the executing core.
	Core *Core
	// Thread is the caller.
	Thread *Thread
	// Class is the syscall class.
	Class kernel.SyscallClass
}

// SwitchHook observes a context switch and returns extra kernel time.
type SwitchHook func(ev SwitchEvent) simtime.Duration

// SyscallHook observes a syscall entry and returns extra kernel time.
type SyscallHook func(ev SyscallEvent) simtime.Duration

// StallHook returns extra stall time to fold into an execution segment of
// length dur on the given core (sampling interrupts, etc).
type StallHook func(c *Core, start simtime.Time, dur simtime.Duration) simtime.Duration

// BranchListener observes the ground-truth branch stream of threads that
// execute with walker-backed Exec models.
type BranchListener func(t *Thread, now simtime.Time, ev binary.BranchEvent)

// MachineStats aggregates machine-wide accounting.
type MachineStats struct {
	// Switches and Migrations count scheduling events machine-wide.
	Switches   int64 `obs:"switches,count"`
	Migrations int64 `obs:"migrations,count"`
	// SwitchPeriodsAll, ByCore and ByProc hold sampled periods between
	// context switches (milliseconds), for the Figure 8 CDFs. Populated
	// only when Config.CollectSwitchPeriods is set.
	SwitchPeriodsAll    []float64 `obs:"-"`
	SwitchPeriodsByCore []float64 `obs:"-"`
	SwitchPeriodsByProc []float64 `obs:"-"`
}

// Machine is the simulated node.
type Machine struct {
	// Cfg is the construction configuration.
	Cfg Config
	// Eng is the machine's own virtual-time engine; no other machine
	// shares it.
	Eng *simtime.Engine
	// Cores are the logical CPUs.
	Cores []*Core
	// Procs are the created processes.
	Procs []*Process
	// Stats is machine-wide accounting.
	Stats MachineStats

	// SwitchHooks, SyscallHooks and StallHooks are the tracing scheme
	// attachment points.
	SwitchHooks  []SwitchHook
	SyscallHooks []SyscallHook
	StallHooks   []StallHook
	// Listener, when set, receives the ground-truth branch stream.
	Listener BranchListener
	// EmitPTWrites makes every syscall entry of a traced context emit a
	// PTWRITE packet carrying the syscall class — the §6.1 data-flow
	// enhancement (requires CtlPTWEn on the core tracer).
	EmitPTWrites bool

	syscalls     []kernel.SyscallSpec
	lastSwitchAt simtime.Time
	nextPID      int
	nextTID      int
	rng          *xrand.Rand
	// running counts the cores with a running thread; together with
	// Process.running it gives interference its "another process runs in
	// the cache domain" answer in O(1) instead of a scan over all cores.
	running int32
}

// switchPeriodChunk presizes the Figure 8 sample slices; it only affects
// their capacity, never their content.
const switchPeriodChunk = 4096

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("sched: machine needs at least one core")
	}
	if cfg.Timeslice <= 0 {
		cfg.Timeslice = 4 * simtime.Millisecond
	}
	syscalls := cfg.Syscalls
	if syscalls == nil {
		syscalls = kernel.DefaultSyscallTable()
	}
	m := &Machine{
		Cfg:      cfg,
		Eng:      simtime.NewEngine(),
		syscalls: syscalls,
		rng:      xrand.Split(cfg.Seed, "sched/machine"),
	}
	if cfg.CollectSwitchPeriods {
		m.Stats.SwitchPeriodsAll = make([]float64, 0, switchPeriodChunk)
		m.Stats.SwitchPeriodsByCore = make([]float64, 0, switchPeriodChunk)
		m.Stats.SwitchPeriodsByProc = make([]float64, 0, switchPeriodChunk)
	}
	for i := 0; i < cfg.Cores; i++ {
		sib := -1
		if cfg.HTSiblings && cfg.Cores%2 == 0 {
			half := cfg.Cores / 2
			if i < half {
				sib = i + half
			} else {
				sib = i - half
			}
		}
		m.Cores = append(m.Cores, &Core{
			ID:      i,
			Sibling: sib,
			Tracer:  ipt.NewTracer(i),
			m:       m,
		})
	}
	return m
}

// Syscall returns the spec for a class, defaulting to class 0 for
// out-of-range classes (a workload bug, but not worth crashing a run).
func (m *Machine) Syscall(class kernel.SyscallClass) kernel.SyscallSpec {
	if int(class) >= len(m.syscalls) {
		return m.syscalls[0]
	}
	return m.syscalls[class]
}

// AddProcess creates a process with the given provisioning. The allowed
// core list must be non-empty and in range.
func (m *Machine) AddProcess(name string, prog *binary.Program, mode ProvisionMode, allowed []int) *Process {
	if len(allowed) == 0 {
		panic("sched: process needs a non-empty core set")
	}
	for _, c := range allowed {
		if c < 0 || c >= len(m.Cores) {
			panic(fmt.Sprintf("sched: core %d out of range", c))
		}
	}
	p := &Process{
		PID:         m.nextPID + 1,
		Name:        name,
		CR3:         0x100000 + uint64(m.nextPID+1)<<12,
		Prog:        prog,
		Mode:        mode,
		Allowed:     append([]int(nil), allowed...),
		allowedMask: make([]uint64, (len(m.Cores)+63)/64),
	}
	for _, c := range allowed {
		p.allowedMask[c>>6] |= 1 << (uint(c) & 63)
	}
	m.nextPID++
	m.Procs = append(m.Procs, p)
	return p
}

// SpawnThread adds a thread to p and makes it runnable at the current
// virtual time.
func (m *Machine) SpawnThread(p *Process, exec Exec) *Thread {
	t := &Thread{
		TID:      m.nextTID + 1,
		Proc:     p,
		Exec:     exec,
		State:    Runnable,
		rng:      xrand.SplitN(m.Cfg.Seed, "sched/thread", m.nextTID+1),
		lastCore: -1,
	}
	m.nextTID++
	p.Threads = append(p.Threads, t)
	m.enqueue(t, m.Eng.Now())
	return t
}

// AllCores returns the list [0, n) for convenience when building core sets.
func (m *Machine) AllCores() []int {
	out := make([]int, len(m.Cores))
	for i := range out {
		out[i] = i
	}
	return out
}

// Run advances the machine to the given absolute virtual time.
func (m *Machine) Run(until simtime.Time) { m.Eng.RunUntil(until) }

// TotalKernelNS sums kernel time across cores.
func (m *Machine) TotalKernelNS() simtime.Duration {
	var d simtime.Duration
	for _, c := range m.Cores {
		d += c.KernelNS
	}
	return d
}

// TotalBusyNS sums user execution time across cores.
func (m *Machine) TotalBusyNS() simtime.Duration {
	var d simtime.Duration
	for _, c := range m.Cores {
		d += c.BusyNS
	}
	return d
}
