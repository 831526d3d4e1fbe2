// Package tracer defines the tracer-backend abstraction every node-level
// consumer builds on: the Backend interface (the shape shared by EXIST
// and the paper's comparison baselines) and New, which builds one of the
// five schemes of the paper's Table 2 by name — "Oracle", "EXIST",
// "StaSam", "eBPF", "NHT". The experiments' scheme sweeps, the existd
// daemon and the examples instantiate tracing through New (by way of
// package node), so a node behaves identically no matter which layer
// drives it. Adding a backend means adding a case to New and its name to
// Names.
//
// Layering (DESIGN.md §3): tracer sits above core and baselines and below
// node; nothing below this package knows scheme names.
package tracer

import (
	"fmt"
	"slices"

	"exist/internal/baselines"
	"exist/internal/memalloc"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Backend is one tracing scheme attached to a machine for a window. The
// baselines satisfy it directly; EXIST satisfies it through the adapter
// in exist.go.
type Backend interface {
	// Name returns the scheme's table name, the name New takes.
	Name() string
	// Attach installs the scheme's hooks on the machine, tracing target
	// (some schemes ignore the target and observe system-wide).
	Attach(m *sched.Machine, target *sched.Process) error
	// Stop deactivates the scheme's hooks. Backends whose window closes
	// itself (EXIST's HRT) treat this as a no-op.
	Stop(now simtime.Time)
	// SpaceMB reports the trace storage consumed, in real MB.
	SpaceMB() float64
}

// SessionBackend is implemented by backends that capture a decodable
// trace.Session (EXIST, NHT). Valid after the window has closed.
type SessionBackend interface {
	Backend
	Session(workload string) *trace.Session
}

// MSRBackend is implemented by backends that count control MSR operations
// (EXIST, NHT) — the ablation tables' currency.
type MSRBackend interface {
	Backend
	MSROps() int64
}

// ErrBackend is implemented by backends whose harvest can fail after the
// fact (EXIST's session result). Err reports the deferred failure.
type ErrBackend interface {
	Backend
	Err() error
}

// Options parameterizes one backend instantiation. Backends ignore fields
// they have no use for.
type Options struct {
	// Period is the tracing window (EXIST: the HRT-bounded session).
	Period simtime.Duration
	// Scale is the space/execution scale (see trace.SpaceScale); 0 means 1.
	Scale float64
	// Seed drives backend randomness (EXIST's coreset sampler).
	Seed uint64
	// Mem overrides EXIST's memory-allocator configuration (nil: the
	// deployment default).
	Mem *memalloc.Config
	// SessionID labels EXIST sessions.
	SessionID string
	// FilterTarget restricts NHT collection to the target via the CR3
	// filter (the accuracy reference) while still paying full-system
	// control costs.
	FilterTarget bool
}

// names lists the schemes New builds, sorted.
var names = []string{"EXIST", "NHT", "Oracle", "StaSam", "eBPF"}

// New instantiates the named backend.
func New(name string, o Options) (Backend, error) {
	switch name {
	case "Oracle":
		return baselines.Oracle{}, nil
	case "EXIST":
		return &EXIST{opts: o}, nil
	case "StaSam":
		return baselines.NewStaSam(), nil
	case "eBPF":
		return baselines.NewEBPF(), nil
	case "NHT":
		scale := o.Scale
		if scale <= 0 {
			scale = 1
		}
		n := baselines.NewNHT(scale)
		n.FilterTarget = o.FilterTarget
		return n, nil
	}
	return nil, fmt.Errorf("tracer: unknown backend %q (use one of %v)", name, names)
}

// Names lists the backends New builds, in sorted order.
func Names() []string { return slices.Clone(names) }
