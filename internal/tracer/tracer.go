// Package tracer defines the pluggable tracer-backend abstraction every
// node-level consumer builds on: the Backend interface (the shape shared
// by EXIST and the paper's comparison baselines) and a named registry that
// maps scheme names — "Oracle", "EXIST", "StaSam", "eBPF", "NHT" — to
// factories. The experiments' scheme sweeps, the cluster control plane,
// the existd daemon, and the examples all instantiate tracing through this
// registry, so a node behaves identically no matter which layer drives it,
// and a new backend becomes available to all of them by registering here.
//
// Layering (DESIGN.md §3): tracer sits above core and baselines and below
// node; nothing below this package knows scheme names.
package tracer

import (
	"fmt"
	"sort"

	"exist/internal/baselines"
	"exist/internal/memalloc"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Backend is one tracing scheme attached to a machine for a window. It is
// the same contract as baselines.Scheme; EXIST itself satisfies it through
// the adapter in exist.go.
type Backend interface {
	// Name returns the scheme's registry/table name.
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
	// SessionID and Node label EXIST sessions for the cluster pipeline.
	SessionID, Node string
	// FilterTarget restricts NHT collection to the target via the CR3
	// filter (the accuracy reference) while still paying full-system
	// control costs.
	FilterTarget bool
}

// Factory builds one backend instance for a run.
type Factory func(Options) Backend

// registry maps scheme names to factories.
var registry = map[string]Factory{}

// Register adds a backend factory under a unique name. It panics on
// duplicates: scheme names are load-bearing identifiers in experiment
// tables and cluster requests.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("tracer: empty registration")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("tracer: backend %q registered twice", name))
	}
	registry[name] = f
}

// New instantiates a registered backend.
func New(name string, o Options) (Backend, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("tracer: unknown backend %q (use one of %v)", name, Names())
	}
	return f(o), nil
}

// Names lists registered backends in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("Oracle", func(Options) Backend { return baselines.Oracle{} })
	Register("StaSam", func(Options) Backend { return baselines.NewStaSam() })
	Register("eBPF", func(Options) Backend { return baselines.NewEBPF() })
	Register("NHT", func(o Options) Backend {
		scale := o.Scale
		if scale <= 0 {
			scale = 1
		}
		n := baselines.NewNHT(scale)
		n.FilterTarget = o.FilterTarget
		return n
	})
	Register("EXIST", func(o Options) Backend { return newEXIST(o) })
}
