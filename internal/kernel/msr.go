package kernel

import (
	"exist/internal/cpu"
	"exist/internal/ipt"
	"exist/internal/simtime"
)

// MSRBus performs the model-specific-register control operations on PT
// tracers and accounts their cost. Every operation returns the kernel time
// it consumed on the executing core — the caller (a tracing scheme's
// sched_switch hook or control path) charges that time to the core, which
// is precisely how control-operation overhead reaches the workload.
//
// The bus also counts operations, because the paper's central claim is a
// reduction in operation *count*: from O(#context switches) under
// conventional control to O(#cores) under EXIST's OTC.
type MSRBus struct {
	// Cost provides the per-operation prices.
	Cost cpu.Model
	// Ops counts every MSR write issued.
	Ops int64
	// Errors counts faulted operations (attempts to reconfigure an
	// enabled tracer); a nonzero count in a run indicates a scheme bug.
	Errors int64
}

// NewMSRBus returns a bus using the given cost model.
func NewMSRBus(cost cpu.Model) *MSRBus { return &MSRBus{Cost: cost} }

// write performs one WRMSR-equivalent and returns its cost.
func (b *MSRBus) write(err error) (simtime.Duration, error) {
	b.Ops++
	if err != nil {
		b.Errors++
	}
	return b.Cost.MSRWrite, err
}

// Enable sets TraceEn with the given configuration. One MSR write.
func (b *MSRBus) Enable(now simtime.Time, tr *ipt.Tracer, ctl uint64) (simtime.Duration, error) {
	return b.write(tr.WriteCtl(now, ctl|ipt.CtlTraceEn))
}

// Disable clears TraceEn, preserving configuration bits. One MSR write.
func (b *MSRBus) Disable(now simtime.Time, tr *ipt.Tracer) (simtime.Duration, error) {
	return b.write(tr.WriteCtl(now, tr.Ctl()&^ipt.CtlTraceEn))
}

// ConfigureOutput points a disabled tracer at an output buffer and sets its
// CR3 filter. Two MSR writes (OUTPUT_BASE/MASK count as one programmed
// pair here, CR3_MATCH as the other).
func (b *MSRBus) ConfigureOutput(tr *ipt.Tracer, out *ipt.ToPA, cr3 uint64) (simtime.Duration, error) {
	d1, err := b.write(tr.SetOutput(out))
	if err != nil {
		return d1, err
	}
	d2, err := b.write(tr.SetCR3Match(cr3))
	return d1 + d2, err
}

// SwapOutputHot repoints an enabled tracer in one register write — the
// §6.1 "hot switching" hardware extension that does not exist on shipping
// parts. The ablation benchmarks use it to quantify how much of the
// conventional per-thread design's cost is the disable/enable dance alone.
func (b *MSRBus) SwapOutputHot(now simtime.Time, tr *ipt.Tracer, out *ipt.ToPA) simtime.Duration {
	b.Ops++
	tr.SwapOutputHot(now, out)
	return b.Cost.MSRWrite
}

// SwapOutput repoints an *enabled* tracer to a different buffer: the
// conventional per-thread-buffer dance at every context switch. Because the
// hardware only accepts output changes with TraceEn clear, this costs a
// full disable + reprogram + enable — three MSR writes. This is the
// operation whose elimination gives EXIST its headline efficiency.
func (b *MSRBus) SwapOutput(now simtime.Time, tr *ipt.Tracer, out *ipt.ToPA, cr3 uint64) (simtime.Duration, error) {
	ctl := tr.Ctl()
	wasEnabled := tr.Enabled()
	var total simtime.Duration
	if wasEnabled {
		d, err := b.Disable(now, tr)
		total += d
		if err != nil {
			return total, err
		}
	}
	d, err := b.write(tr.SetOutput(out))
	total += d
	if err != nil {
		return total, err
	}
	d, err = b.write(tr.SetCR3Match(cr3))
	total += d
	if err != nil {
		return total, err
	}
	if wasEnabled {
		d, err = b.Enable(now+total, tr, ctl)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
