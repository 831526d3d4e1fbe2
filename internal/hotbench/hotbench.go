// Package hotbench builds the deterministic trace-pipeline fixtures that
// the hot-path rows (package rows), the decoder's tests and the datapath
// experiment share: a synthetic program plus a realistic packet stream
// produced by driving the PT tracer model with a ground-truth walker,
// including thread migrations so the decoder's sidecar and
// segment-ordering paths are exercised.
package hotbench

import (
	"fmt"

	"exist/internal/binary"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/xrand"
)

// Program synthesizes the benchmark binary. The shape (function count,
// branch mix) matches a mid-size service profile.
func Program(seed uint64) *binary.Program {
	return binary.Synthesize(binary.DefaultSpec(fmt.Sprintf("hot-%d", seed), 3))
}

// Session encodes one per-core packet stream by walking prog for the given
// cycle budget, rotating the scheduled-in thread every slice to populate
// the five-tuple sidecar. The result is a decodable session whose volume
// scales linearly with budget.
func Session(prog *binary.Program, seed uint64, budget int64) *trace.Session {
	tr := ipt.NewTracer(0)
	if err := tr.SetOutput(ipt.NewToPA(64<<20, false)); err != nil {
		panic(err)
	}
	const cr3 = 0x1000
	if err := tr.SetCR3Match(cr3); err != nil {
		panic(err)
	}

	sess := &trace.Session{ID: "hotbench", Workload: prog.Name, PID: 1, Scale: 1}
	w := binary.NewWalker(prog, xrand.Split(seed, "hotbench/walk"))

	// Rotate among four threads in ~50k-cycle slices: each slice opens
	// with a five-tuple record and a context switch (PIP + TSC + PGE), the
	// packet pattern OTC produces for same-process thread switches.
	const slice = 50_000
	const tids = 4
	now := simtime.Time(0)
	if err := tr.WriteCtl(now, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
		panic(err)
	}
	var used int64
	for i := 0; used < budget; i++ {
		tid := int32(1 + i%tids)
		sess.Switches.Add(kernel.SwitchRecord{TS: now, CPU: 0, PID: 1, TID: tid, Op: kernel.OpIn})
		tr.ContextSwitch(now, cr3, w.CurrentAddr())
		n, _, _ := w.Run(slice, func(ev binary.BranchEvent) {
			tr.OnBranch(now, ev)
		})
		used += n
		now += simtime.Time(slice)
		sess.Switches.Add(kernel.SwitchRecord{TS: now, CPU: 0, PID: 1, TID: tid, Op: kernel.OpOut})
	}
	if err := tr.WriteCtl(now, ipt.DefaultCtl()); err != nil {
		panic(err)
	}
	tr.Flush()
	out := tr.Output()
	sess.End = now
	sess.Cores = append(sess.Cores, trace.ReadOut(0, out))
	out.Release()
	return sess
}

// EncodeOnce drives the walker→tracer encode path the scheduler runs
// (batched emission with packed TNT directions, staged packet output into
// a ToPA) for one walk of the given budget and returns the bytes
// produced. The encode_hot row calls it per op.
func EncodeOnce(prog *binary.Program, seed uint64, budget int64) int64 {
	tr := ipt.NewTracer(0)
	topa := ipt.NewToPA(64<<20, false)
	if err := tr.SetOutput(topa); err != nil {
		panic(err)
	}
	if err := tr.WriteCtl(0, ipt.DefaultCtl()|ipt.CtlTraceEn); err != nil {
		panic(err)
	}
	w := binary.NewWalker(prog, xrand.Split(seed, "hotbench/encode"))
	sink := tracerSink{tr: tr}
	var used int64
	for used < budget {
		n, _, _ := w.RunBatch(budget-used, sink)
		if n <= 0 {
			break
		}
		used += n
	}
	tr.Flush()
	topa.Release()
	return tr.Stats.Bytes
}
