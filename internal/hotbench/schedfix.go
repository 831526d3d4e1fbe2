package hotbench

import (
	"slices"

	"exist/internal/binary"
	"exist/internal/ipt"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// tracerSink feeds walker batches straight into a tracer's staged
// packet-generation path, as the scheduler's segment loop does.
type tracerSink struct{ tr *ipt.Tracer }

// EmitBranches implements binary.BranchSink.
func (s tracerSink) EmitBranches(evs []binary.BranchEvent, tnt *binary.TNTPack) {
	s.tr.OnBranchBatch(0, evs, tnt)
}

// Batch is one walker emission batch as the walker hands it to its sink:
// the events plus their packed conditional directions.
type Batch struct {
	Evs  []binary.BranchEvent
	Pack binary.TNTPack
}

// batchRecorder is a BranchSink that keeps a copy of every batch.
type batchRecorder struct{ batches []Batch }

// EmitBranches implements binary.BranchSink.
func (r *batchRecorder) EmitBranches(evs []binary.BranchEvent, tnt *binary.TNTPack) {
	r.batches = append(r.batches, Batch{Evs: slices.Clone(evs), Pack: *tnt})
}

// TracerHotOnce replays the recorded walker batches through the tracer's
// batched ingestion path and returns the bytes emitted.
func TracerHotOnce(tr *ipt.Tracer, batches []Batch) int64 {
	before := tr.Stats.Bytes
	for i := range batches {
		tr.OnBranchBatch(0, batches[i].Evs, &batches[i].Pack)
	}
	tr.Flush()
	return tr.Stats.Bytes - before
}

// Events walks prog for the given cycle budget and records the walker's
// batches, so the tracer hot-path benchmarks replay exactly what the
// walker hands the tracer without paying for the walk on every iteration.
func Events(prog *binary.Program, seed uint64, budget int64) []Batch {
	w := binary.NewWalker(prog, xrand.Split(seed, "hotbench/events"))
	var rec batchRecorder
	var used int64
	for used < budget {
		n, _, _ := w.RunBatch(budget-used, &rec)
		if n <= 0 {
			break
		}
		used += n
	}
	return rec.batches
}

// NewHotTracer returns an enabled tracer writing into a ring-mode chain of
// the given size; ring mode keeps repeated benchmark iterations in steady
// state (the chain never stops, so every iteration does identical work).
func NewHotTracer(size int) *ipt.Tracer {
	tr := ipt.NewTracer(0)
	if err := tr.SetOutput(ipt.NewToPA([]int{size}, true)); err != nil {
		panic(err)
	}
	if err := tr.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
		panic(err)
	}
	return tr
}

// SchedBench is a reusable walker-segment benchmark machine: a small
// oversubscribed node running branch-exact walker threads under an enabled
// per-core tracer, the configuration that dominates the walker experiments
// (fig14-16, tab03/04). RunWindow advances the simulation one fixed window
// of virtual time; iterations continue the same timeline, so per-window
// work is steady.
type SchedBench struct {
	// M is the machine under test.
	M *sched.Machine
	// Window is the virtual duration one RunWindow covers.
	Window simtime.Duration
}

// NewSchedBench builds the canned benchmark machine.
func NewSchedBench(seed uint64) *SchedBench {
	cfg := sched.DefaultConfig()
	cfg.Cores = 4
	cfg.HTSiblings = true
	cfg.Timeslice = 500 * simtime.Microsecond
	cfg.Seed = seed
	m := sched.NewMachine(cfg)

	prog := Program(seed)
	p := m.AddProcess("hot-target", prog, sched.CPUShare, m.AllCores())
	for i := 0; i < 6; i++ {
		exec := sched.NewWalkerExec(prog, xrand.SplitN(seed, "hotbench/sched", i), cfg.Cost, 1e-3).
			WithPacing(200*simtime.Microsecond, []float64{1})
		m.SpawnThread(p, exec)
	}
	for _, c := range m.Cores {
		// Ring output keeps tracers in steady state across windows.
		if err := c.Tracer.SetOutput(ipt.NewToPA([]int{1 << 20}, true)); err != nil {
			panic(err)
		}
		if err := c.Tracer.SetCR3Match(p.CR3); err != nil {
			panic(err)
		}
		if err := c.Tracer.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
			panic(err)
		}
	}
	return &SchedBench{M: m, Window: 2 * simtime.Millisecond}
}

// RunWindow advances the machine one benchmark window and returns the
// trace bytes produced during it.
func (s *SchedBench) RunWindow() int64 {
	var before int64
	for _, c := range s.M.Cores {
		before += c.Tracer.Stats.Bytes
	}
	s.M.Run(s.M.Eng.Now() + s.Window)
	var after int64
	for _, c := range s.M.Cores {
		after += c.Tracer.Stats.Bytes
	}
	return after - before
}
