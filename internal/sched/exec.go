package sched

import (
	"exist/internal/binary"
	"exist/internal/cpu"
	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// RunContext is what the scheduler hands an Exec for one bounded segment.
type RunContext struct {
	// Core is the executing core.
	Core *Core
	// Start is the segment start time.
	Start simtime.Time
	// MaxNS bounds the segment's wall duration (one timeslice).
	MaxNS simtime.Duration
	// CyclesPerNS is the effective execution rate after co-location
	// interference (cost-model frequency divided by the interference
	// factor).
	CyclesPerNS float64
	// TracingActive reports whether the core's PT tracer is enabled and
	// the thread's context passes the filter, so the Exec can charge the
	// hardware packet-generation stretch.
	TracingActive bool
	// Sink receives the ground-truth branch stream in batches; nil when
	// nobody is listening (fast path). Batches are views into a reused
	// buffer, valid only for the duration of the EmitBranches call.
	Sink binary.BranchSink
}

// RunResult reports what one segment did.
type RunResult struct {
	// UsedNS is the wall time consumed (always >= 1).
	UsedNS simtime.Duration
	// Cycles, Insns and Branches are the useful work retired.
	Cycles   int64
	Insns    int64
	Branches int64
	// BulkCond and BulkInd, when nonzero, ask the scheduler to feed the
	// core tracer an aggregate burst (analytic workloads that do not
	// materialize individual branch events).
	BulkCond int64
	BulkInd  int64
	// Stop says why the segment ended.
	Stop binary.StopReason
	// SyscallClass is valid when Stop == binary.StopSyscall.
	SyscallClass kernel.SyscallClass
}

// Exec models a thread's execution. Implementations must be resumable:
// Run is called repeatedly for consecutive segments.
type Exec interface {
	// Run executes at most ctx.MaxNS of wall time.
	Run(ctx *RunContext) RunResult
	// CurrentIP returns the instruction pointer the thread would resume
	// at (what a tracer's TIP.PGE records on schedule-in).
	CurrentIP() uint64
}

// refBranchDensity is the branch density (PT events per kilocycle) at
// which cpu.Model.PTBranchOverhead applies exactly; denser programs pay
// proportionally more packet-generation bandwidth.
const refBranchDensity = 50.0

// PTStretchFor computes the multiplicative execution stretch PT imposes on
// a workload with the given branch density, with cycle-accurate packets
// (CYCEn) included since EXIST enables them.
func PTStretchFor(cost cpu.Model, branchPerKCycle float64) float64 {
	d := branchPerKCycle / refBranchDensity
	return 1 + (cost.PTBranchOverhead+cost.CYCPacketExtra)*d
}

// WalkerExec executes a synthetic binary block-by-block, producing the
// exact branch stream. It is the execution model for accuracy experiments.
//
// Scale is the slow-motion knob: the fraction of the real branch rate that
// is actually materialized. Real hardware retires ~1e8 PT events per
// second per core, far too many to simulate individually; running at
// Scale=1e-3 keeps all rates and ratios intact while making a 0.5 s
// tracing window cost ~1e5 simulated events. Buffer sizes are scaled by
// the same factor (see trace.SpaceScale), so occupancy and drop behaviour
// are preserved.
type WalkerExec struct {
	// W is the underlying program walker.
	W *binary.Walker
	// Scale is the simulated fraction of the real execution rate.
	Scale float64
	// PTStretch is the execution stretch while traced.
	PTStretch float64
	// PaceMeanNS, when positive, injects syscalls at this mean wall-time
	// interval. Slow-motion walking (Scale << 1) would otherwise make the
	// workload's syscall — and hence context-switch — rate unrealistically
	// low: the branch stream runs in slow motion but scheduling must keep
	// its real cadence. Injected syscalls happen at segment boundaries, so
	// they are invisible to the branch stream and to the decoder (as real
	// syscalls are: PT emits nothing for them under user-mode filtering).
	PaceMeanNS simtime.Duration
	// PaceClassWeights selects injected syscall classes.
	PaceClassWeights []float64

	paceLeft simtime.Duration
	paceRNG  *xrand.Rand
}

// NewWalkerExec builds a walker-backed exec for prog.
func NewWalkerExec(prog *binary.Program, rng *xrand.Rand, cost cpu.Model, scale float64) *WalkerExec {
	if scale <= 0 {
		scale = 1
	}
	return &WalkerExec{
		W:         binary.NewWalker(prog, rng),
		Scale:     scale,
		PTStretch: PTStretchFor(cost, prog.BranchPerKCycle()),
		paceRNG:   rng,
	}
}

// WithPacing configures wall-rate syscall injection and returns the exec.
func (e *WalkerExec) WithPacing(mean simtime.Duration, classWeights []float64) *WalkerExec {
	e.PaceMeanNS = mean
	e.PaceClassWeights = classWeights
	return e
}

// CurrentIP returns the walker's resume address.
func (e *WalkerExec) CurrentIP() uint64 { return e.W.CurrentAddr() }

// Run implements Exec.
func (e *WalkerExec) Run(ctx *RunContext) RunResult {
	rate := ctx.CyclesPerNS * e.Scale
	if ctx.TracingActive {
		rate /= e.PTStretch
	}
	maxNS := ctx.MaxNS
	pacing := e.PaceMeanNS > 0
	if pacing {
		if e.paceLeft <= 0 {
			e.paceLeft = simtime.Duration(e.paceRNG.Exp(float64(e.PaceMeanNS))) + 1
		}
		if e.paceLeft < maxNS {
			maxNS = e.paceLeft
		}
	}
	budget := int64(float64(maxNS) * rate)
	if budget < 64 {
		budget = 64
	}
	cyc, ins, br := e.W.Count.Cycles, e.W.Count.Insns, e.W.Count.Branches
	used, reason, class := e.W.RunBatch(budget, ctx.Sink)
	usedNS := simtime.Duration(float64(used) / rate)
	if usedNS < 1 {
		usedNS = 1
	}
	if pacing {
		// The pacer is an independent syscall source layered over the
		// CFG's native sites; it keeps counting across them.
		e.paceLeft -= usedNS
		if reason != binary.StopSyscall && e.paceLeft <= 0 {
			reason = binary.StopSyscall
			e.paceLeft = 0
			if len(e.PaceClassWeights) > 0 {
				class = uint8(e.paceRNG.WeightedPick(e.PaceClassWeights))
			}
		}
	}
	return RunResult{
		UsedNS:       usedNS,
		Cycles:       e.W.Count.Cycles - cyc,
		Insns:        e.W.Count.Insns - ins,
		Branches:     e.W.Count.Branches - br,
		Stop:         reason,
		SyscallClass: class,
	}
}

// AnalyticExec models a thread's execution statistically: exponential
// bursts of work between syscalls, with branch volume accounted in
// aggregate. It is the execution model for efficiency experiments, where
// per-branch detail is unnecessary but rates must be exact.
type AnalyticExec struct {
	// MeanCyclesPerSyscall is the mean user-mode work between syscalls;
	// zero means the thread never performs syscalls.
	MeanCyclesPerSyscall int64
	// ClassWeights selects the syscall class (nil: always class 0).
	ClassWeights []float64
	// BranchPerKCycle is the PT event density of the workload.
	BranchPerKCycle float64
	// IndirectFrac is the fraction of PT events that are TIP-class.
	IndirectFrac float64
	// IPC converts cycles to retired instructions.
	IPC float64
	// PTStretch is the execution stretch while traced.
	PTStretch float64

	rng       *xrand.Rand
	remaining int64
}

// NewAnalyticExec builds an analytic exec from workload rates.
func NewAnalyticExec(rng *xrand.Rand, cost cpu.Model, meanCyclesPerSyscall int64,
	classWeights []float64, branchPerKCycle, indirectFrac, ipc float64) *AnalyticExec {
	if ipc <= 0 {
		ipc = 1
	}
	return &AnalyticExec{
		MeanCyclesPerSyscall: meanCyclesPerSyscall,
		ClassWeights:         classWeights,
		BranchPerKCycle:      branchPerKCycle,
		IndirectFrac:         indirectFrac,
		IPC:                  ipc,
		PTStretch:            PTStretchFor(cost, branchPerKCycle),
		rng:                  rng,
	}
}

// CurrentIP returns a fixed text address; analytic threads are never
// decoded, only accounted.
func (e *AnalyticExec) CurrentIP() uint64 { return 0x400000 }

// Run implements Exec.
func (e *AnalyticExec) Run(ctx *RunContext) RunResult {
	rate := ctx.CyclesPerNS
	if ctx.TracingActive {
		rate /= e.PTStretch
	}
	budget := int64(float64(ctx.MaxNS) * rate)
	if budget < 1 {
		budget = 1
	}
	var res RunResult
	if e.MeanCyclesPerSyscall > 0 && e.remaining == 0 {
		e.remaining = int64(e.rng.Exp(float64(e.MeanCyclesPerSyscall))) + 1
	}
	switch {
	case e.MeanCyclesPerSyscall > 0 && e.remaining <= budget:
		res.Cycles = e.remaining
		res.Stop = binary.StopSyscall
		if len(e.ClassWeights) > 0 {
			res.SyscallClass = kernel.SyscallClass(e.rng.WeightedPick(e.ClassWeights))
		}
		e.remaining = 0
	default:
		res.Cycles = budget
		if e.MeanCyclesPerSyscall > 0 {
			e.remaining -= budget
		}
		res.Stop = binary.StopBudget
	}
	res.UsedNS = simtime.Duration(float64(res.Cycles) / rate)
	if res.UsedNS < 1 {
		res.UsedNS = 1
	}
	res.Insns = int64(float64(res.Cycles) * e.IPC)
	res.Branches = int64(float64(res.Cycles) * e.BranchPerKCycle / 1000)
	res.BulkInd = int64(float64(res.Branches) * e.IndirectFrac)
	res.BulkCond = res.Branches - res.BulkInd
	return res
}
