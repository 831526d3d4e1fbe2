// Package node is the unified node runtime: one substrate that every
// layer of the system drives the same way. A Spec declares a node —
// machine shape, target workload, co-located load, and one tracing window
// under a named tracer backend — and the lifecycle
//
//	Spec → Provision → Attach → Run → Harvest
//
// turns it into measurements. The experiments' scheme sweeps, the cluster
// control plane's node pods, the existd daemon, and the examples all build
// nodes here, so a node behaves identically no matter which layer drives
// it (the paper's §5 premise: every scheme measured over the same node).
//
// Layering (DESIGN.md §3): node composes sched + kernel + ipt + memalloc +
// session production through tracer.New; it sits above tracer and below
// experiments and cluster.
//
// Determinism: all randomness derives from Spec.Seed plus fixed offsets
// (co-runner SeedOffset, housekeeping +91), never from run order, so specs
// fan out across worker pools freely. Binaries are deterministic in
// (profile spec, seed), which is what lets Program memoize synthesis
// across sweep cells sharing a cell seed; machines are stateful and are
// never reused across cells.
package node

import (
	"fmt"
	"sync"

	"exist/internal/binary"
	"exist/internal/core"
	"exist/internal/kernel"
	"exist/internal/memalloc"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/tracer"
	"exist/internal/workload"
	"exist/internal/xrand"
)

// CoRunner is one co-located workload sharing the node.
type CoRunner struct {
	// Profile is the co-runner's workload.
	Profile workload.Profile
	// Cores optionally pins the co-runner (nil: share all cores).
	Cores []int
	// SeedOffset is added to the machine seed for the co-runner's install
	// (offsets keep co-runner streams distinct and order-independent).
	SeedOffset uint64
}

// Spec declares one node: substrate, target, co-location, and the tracing
// window. The zero value of a field selects the measurement default noted
// on it.
type Spec struct {
	// Cores sizes the machine (0: the 8-core measurement node).
	Cores int
	// HT enables hyperthread pairing (core i pairs with i+Cores/2).
	HT bool
	// Timeslice is the scheduler quantum (0: the sched default).
	Timeslice simtime.Duration
	// Seed is the machine seed; callers fold their own perturbation in
	// before provisioning (experiments XOR the run seed with cfg.Seed).
	Seed uint64
	// CollectSwitchPeriods enables the Figure 8 period sampling.
	CollectSwitchPeriods bool
	// Syscalls overrides the syscall table (nil: the kernel default).
	Syscalls []kernel.SyscallSpec

	// Workload is the target application (empty Name: no target, as for
	// cluster pods that deploy workloads later).
	Workload workload.Profile
	// Threads overrides the profile thread count (0: profile default).
	Threads int
	// TargetCores optionally pins the target (nil: profile default).
	TargetCores []int
	// Walker selects branch-exact execution at Scale; analytic otherwise.
	Walker bool
	// Scale is the walker's slow-motion factor (0: the 1e-4 default).
	Scale float64
	// Prog overrides the target binary (nil: synthesized — and memoized —
	// from the profile at the machine seed).
	Prog *binary.Program

	// CoRunners are co-located workloads sharing the machine.
	CoRunners []CoRunner
	// Housekeeping pins one kworker-style thread per core (see
	// AddHousekeeping), seeded at machine seed + 91.
	Housekeeping bool

	// Backend names the tracer backend for the window (a tracer.Names
	// entry; empty: no tracing — the Oracle of a sweep is the "Oracle"
	// backend, an empty Backend means the node is driven manually via
	// Controller).
	Backend string
	// Tracer parameterizes the backend. Zero fields resolve to the window:
	// Period defaults to Dur, Scale to the resolved execution scale, Seed
	// to the machine seed; Mem defaults per MemBudget below.
	Tracer tracer.Options
	// MemBudget bounds EXIST's buffers when Tracer.Mem is nil (0: analytic
	// full-rate runs cap at a compact 64 MB so the measurement itself
	// stays cheap; space experiments pass the paper's 500 MB).
	MemBudget int64
	// Warmup runs the machine before the backend attaches (de-phasing
	// capture from process start, as production tracing always is).
	Warmup simtime.Duration
	// Dur is the measured window (0: the 2 s measurement default).
	Dur simtime.Duration
	// Drain runs the machine past the window so self-closing sessions
	// resolve (EXIST's HRT needs its closing event to fire).
	Drain simtime.Duration
	// KeepSession asks Harvest for the backend's session payload.
	KeepSession bool
}

// Result is one run's measurements.
type Result struct {
	// Machine is the provisioned machine (callers read global stats).
	Machine *sched.Machine
	// Proc is the installed target (nil without a workload).
	Proc *sched.Process
	// Backend is the attached backend (nil without one).
	Backend tracer.Backend
	// Stats are the target's scheduling/execution counters.
	Stats sched.ThreadStats
	// CPI is the target's cycles per instruction.
	CPI float64
	// UtilFrac is machine busy+kernel time over Dur×Cores capacity
	// (meaningful for zero-warmup measurement runs).
	UtilFrac float64
	// SpaceMB is the backend's trace storage, in real MB.
	SpaceMB float64
	// MSROps counts the backend's control MSR operations.
	MSROps int64
	// Session is the captured trace (KeepSession with a session-producing
	// backend).
	Session *trace.Session
}

// Overhead returns the fractional cycle-throughput loss vs a baseline run.
func (r Result) Overhead(base Result) float64 {
	if r.Stats.Cycles == 0 {
		return 0
	}
	return float64(base.Stats.Cycles)/float64(r.Stats.Cycles) - 1
}

// Inflation returns the service-time inflation vs a baseline run: the
// on-CPU wall time (user + charged kernel) per unit of retired work. For
// I/O-heavy services this is the right overhead metric — blocking slack
// hides tracing costs from raw cycle throughput, but every request still
// takes proportionally longer on-CPU, which is what queueing amplifies.
func (r Result) Inflation(base Result) float64 {
	per := func(x Result) float64 {
		if x.Stats.Cycles == 0 {
			return 0
		}
		return float64(x.Stats.CPUTime+x.Stats.KernelTime) / float64(x.Stats.Cycles)
	}
	b := per(base)
	if b == 0 {
		return 0
	}
	return per(r)/b - 1
}

// Runtime is a provisioned node stepping through the lifecycle phases.
type Runtime struct {
	// Spec is the normalized spec the node was provisioned from.
	Spec Spec
	// Machine is the live machine.
	Machine *sched.Machine
	// Proc is the installed target (nil without a workload).
	Proc *sched.Process
	// Backend is set by Attach when Spec.Backend names one.
	Backend tracer.Backend

	ctrl *core.Controller
}

// Provision builds the machine and installs the target, co-runners, and
// housekeeping. Nothing has executed yet; callers may add listeners,
// hooks, or extra threads before Attach.
func Provision(spec Spec) *Runtime {
	if spec.Cores == 0 {
		spec.Cores = 8
	}
	if spec.Dur == 0 {
		spec.Dur = 2 * simtime.Second
	}
	mcfg := sched.DefaultConfig()
	mcfg.Cores = spec.Cores
	mcfg.HTSiblings = spec.HT
	mcfg.Seed = spec.Seed
	mcfg.CollectSwitchPeriods = spec.CollectSwitchPeriods
	if spec.Timeslice > 0 {
		mcfg.Timeslice = spec.Timeslice
	}
	if spec.Syscalls != nil {
		mcfg.Syscalls = spec.Syscalls
	}
	m := sched.NewMachine(mcfg)
	rt := &Runtime{Spec: spec, Machine: m}

	if spec.Workload.Name != "" {
		tp := spec.Workload
		if spec.Threads > 0 {
			tp.Threads = spec.Threads
		}
		prog := spec.Prog
		if prog == nil && spec.Walker {
			prog = Program(tp, mcfg.Seed)
		}
		rt.Proc = tp.Install(m, workload.InstallOpts{
			Walker:  spec.Walker,
			Scale:   spec.Scale,
			Allowed: spec.TargetCores,
			Prog:    prog,
			Seed:    mcfg.Seed,
		})
	}
	for _, co := range spec.CoRunners {
		co.Profile.Install(m, workload.InstallOpts{Allowed: co.Cores, Seed: mcfg.Seed + co.SeedOffset})
	}
	if spec.Housekeeping {
		AddHousekeeping(m, mcfg.Seed+91)
	}
	return rt
}

// Attach runs the warmup and attaches the named backend to the target.
// With no Backend it only warms up (Controller-driven nodes trace
// manually).
func (rt *Runtime) Attach() error {
	if rt.Spec.Warmup > 0 {
		rt.Machine.Run(rt.Spec.Warmup)
	}
	if rt.Spec.Backend == "" {
		return nil
	}
	if rt.Proc == nil {
		return fmt.Errorf("node: backend %q needs a target workload", rt.Spec.Backend)
	}
	b, err := tracer.New(rt.Spec.Backend, rt.tracerOptions())
	if err != nil {
		return err
	}
	if err := b.Attach(rt.Machine, rt.Proc); err != nil {
		return err
	}
	rt.Backend = b
	return nil
}

// tracerOptions resolves the window's backend options: Period defaults to
// the window, Scale to the resolved execution scale, Seed to the machine
// seed, and Mem per the MemBudget policy.
func (rt *Runtime) tracerOptions() tracer.Options {
	o := rt.Spec.Tracer
	if o.Period == 0 {
		o.Period = rt.Spec.Dur
	}
	if o.Scale == 0 {
		o.Scale = rt.execScale()
	}
	if o.Seed == 0 {
		o.Seed = rt.Machine.Cfg.Seed
	}
	if o.Mem == nil {
		if rt.Spec.MemBudget > 0 {
			o.Mem = &memalloc.Config{Budget: rt.Spec.MemBudget, PerCoreMin: 4 << 20, PerCoreMax: 128 << 20}
		} else if !rt.Spec.Walker {
			// Full-rate analytic runs fill buffers fast; cap the memory
			// the measurement itself allocates unless space is the point.
			o.Mem = &memalloc.Config{Budget: 64 << 20, PerCoreMin: 2 << 20, PerCoreMax: 16 << 20}
		}
	}
	return o
}

// execScale is the target's effective execution scale: the walker's
// slow-motion factor, or 1 for full-rate analytic execution.
func (rt *Runtime) execScale() float64 {
	if !rt.Spec.Walker {
		return 1
	}
	if rt.Spec.Scale > 0 {
		return rt.Spec.Scale
	}
	return 1e-4
}

// Run executes the window: warmup (already consumed by Attach) + the
// measured duration + the drain.
func (rt *Runtime) Run() {
	rt.Machine.Run(rt.Spec.Warmup + rt.Spec.Dur + rt.Spec.Drain)
}

// Harvest stops the backend and collects the run's measurements.
func (rt *Runtime) Harvest() (Result, error) {
	m := rt.Machine
	res := Result{Machine: m, Proc: rt.Proc, Backend: rt.Backend}
	if b := rt.Backend; b != nil {
		b.Stop(m.Eng.Now())
		if eb, ok := b.(tracer.ErrBackend); ok {
			if err := eb.Err(); err != nil {
				return res, err
			}
		}
		res.SpaceMB = b.SpaceMB()
		if mb, ok := b.(tracer.MSRBackend); ok {
			res.MSROps = mb.MSROps()
		}
		if sb, ok := b.(tracer.SessionBackend); ok && rt.Spec.KeepSession {
			res.Session = sb.Session(rt.Spec.Workload.Name)
		}
	}
	if rt.Proc != nil {
		res.Stats = rt.Proc.Stats()
		res.CPI = rt.Proc.CPI(m.Cfg.Cost)
	}
	capacity := float64(rt.Spec.Dur) * float64(m.Cfg.Cores)
	res.UtilFrac = (float64(m.TotalBusyNS()) + float64(m.TotalKernelNS())) / capacity
	return res, nil
}

// Run executes the whole lifecycle for a spec.
func Run(spec Spec) (Result, error) {
	rt := Provision(spec)
	if err := rt.Attach(); err != nil {
		return Result{Machine: rt.Machine, Proc: rt.Proc}, err
	}
	rt.Run()
	return rt.Harvest()
}

// Controller lazily creates the node's EXIST controller for callers that
// drive sessions directly (the cluster control plane, triggered tracing).
// Nodes whose window runs through Spec.Backend never need it.
func (rt *Runtime) Controller() *core.Controller {
	if rt.ctrl == nil {
		rt.ctrl = core.NewController(rt.Machine)
	}
	return rt.ctrl
}

// AddHousekeeping pins one kworker-style kernel housekeeping thread on
// every core: a ~20 µs burst every couple of milliseconds. Real nodes
// always have these; they are what guarantees that even a CPU-bound
// pinned target is scheduled out (and captured by OTC) within
// milliseconds.
func AddHousekeeping(m *sched.Machine, seed uint64) {
	weights := make([]float64, int(kernel.SysNanosleep)+1)
	weights[kernel.SysNanosleep] = 1
	for i := range m.Cores {
		p := m.AddProcess(fmt.Sprintf("kworker/%d", i), nil, sched.CPUSet, []int{i})
		exec := sched.NewAnalyticExec(xrand.SplitN(seed, "kworker", i), m.Cfg.Cost,
			60_000, weights, 20, 0.1, 1.2)
		m.SpawnThread(p, exec)
	}
}

// progCache memoizes synthesized binaries across sweep cells: synthesis is
// deterministic in (binary spec, seed) and Program's lazy indexes build
// under sync.Once, so one instance serves concurrent cells.
var progCache sync.Map // binary-spec literal → *binary.Program

// Program returns the profile's synthesized binary at seed, memoized.
func Program(p workload.Profile, seed uint64) *binary.Program {
	key := fmt.Sprintf("%#v", p.BinarySpec(seed))
	if v, ok := progCache.Load(key); ok {
		return v.(*binary.Program)
	}
	v, _ := progCache.LoadOrStore(key, p.Synthesize(seed))
	return v.(*binary.Program)
}
