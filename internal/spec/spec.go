// Package spec defines the versioned scenario specification — the one
// declarative source all simulated traffic compiles out of. A document
// (JSON or a YAML subset, parsed with no dependencies beyond the standard
// library) names workload profiles and, optionally, a traffic scenario:
// clients with rate fractions and arrival processes, a rate envelope over
// time, SLO classes, node placement with co-runners, a cluster section
// with fault-schedule hooks, and a CSV replay mode for recorded arrival
// traces.
//
// The schema is declared once, on the types below: each document key is
// a `spec:"key"` struct tag, and `spec:",line"` marks the field that
// receives a mapping's source line. An untagged field is not a document
// key. One reflective walk (decodeInto) decodes every type, so a key is
// added by adding a tagged field.
//
// The package is a leaf: it knows nothing of the workload, node, or
// cluster packages. Those compile spec structures into their own types
// (workload.CompileProfiles, node.CompileScenario, cluster.ConfigFromSpec),
// so the dependency arrow points from the runtime layers to the DSL —
// experiments consume compiled scenarios instead of constructing traffic
// imperatively.
//
// Determinism contract: arrival schedules derive exclusively from
// internal/xrand streams keyed by the document seed and client ids —
// never wall clock, map order, or run order — so a document compiles to
// the identical schedule on every run at any parallelism.
package spec

// Document is one parsed scenario specification.
type Document struct {
	// Version is the spec format version (must be 1).
	Version int `spec:"version"`
	// Name identifies the document (bundled scenarios list it).
	Name string `spec:"name"`
	// Desc is a one-line description.
	Desc string `spec:"desc"`
	// Seed drives all randomness derived from the document. Zero is a
	// valid seed; consumers typically fold their own seed in.
	Seed uint64 `spec:"seed"`
	// Profiles defines or overrides named workload profiles.
	Profiles []Profile `spec:"profiles"`
	// Scenario describes traffic; nil for profile-only documents.
	Scenario *Scenario `spec:"scenario"`

	// Src is the document name given to Parse (for error context).
	Src string
}

// Profile is a declarative workload profile. Optional fields are pointers:
// nil means "inherit from Base" (or the zero default when Base is empty),
// mirroring how the hand-written Table 1 constructors derived variants
// from a shared base value.
type Profile struct {
	// Name is the profile identifier (pb, mc, Search1, ...).
	Name string `spec:"name"`
	// Desc is the human description.
	Desc string `spec:"desc"`
	// Base names a profile (earlier in this document, or from the compile
	// context) whose resolved fields seed this one.
	Base string `spec:"base"`
	// Abstract marks a template profile that is only a Base for others
	// and is not emitted.
	Abstract bool `spec:"abstract"`
	// Class is "compute", "online" or "cloud".
	Class string `spec:"class"`
	// Mode is "cpuset" or "cpushare".
	Mode string `spec:"mode"`

	BranchPerKCycle      *float64 `spec:"branch_per_kcycle"`
	IndirectFrac         *float64 `spec:"indirect_frac"`
	IPC                  *float64 `spec:"ipc"`
	MeanCyclesPerSyscall *int64   `spec:"mean_cycles_per_syscall"`
	// Syscalls weights syscall classes by mnemonic (read, write, sendto,
	// recvfrom, futex, epoll_wait, nanosleep, sched_yield).
	Syscalls    map[string]float64 `spec:"syscalls"`
	Threads     *int               `spec:"threads"`
	CoresWanted *int               `spec:"cores_wanted"`

	BranchMissPerKInsn *float64 `spec:"branch_miss_per_kinsn"`
	L1MissPerKInsn     *float64 `spec:"l1_miss_per_kinsn"`
	LLCMissPerKInsn    *float64 `spec:"llc_miss_per_kinsn"`

	Priority   *int `spec:"priority"`
	PastIssues *int `spec:"past_issues"`

	Funcs          *int `spec:"funcs"`
	AvgBlockCycles *int `spec:"avg_block_cycles"`
	// Categories weights function categories by name (GENERAL, MEM_JE,
	// MEM_TC, MEM_ALLOC, MEM_FREE, MEM_COPY, MEM_SET, MEM_CMP, MEM_MOVE,
	// SYNC_ATOMIC, SYNC_SPINLOCK, SYNC_MUTEX, SYNC_CAS, KERNEL_SCHE,
	// KERNEL_IRQ, KERNEL_NET).
	Categories map[string]float64 `spec:"categories"`
	// MemClassMix weights the three memory operand classes.
	MemClassMix []float64 `spec:"mem_class_mix"`
	// MemWidthMix weights the four operand widths.
	MemWidthMix []float64 `spec:"mem_width_mix"`

	// Line is the profile's source line (for error context).
	Line int `spec:",line"`
}

// Scenario describes a traffic pattern end to end.
type Scenario struct {
	// DurationS is the traffic window in simulated seconds.
	DurationS float64 `spec:"duration_s"`
	// AggregateRate is the cluster-wide request rate in requests/second,
	// split across clients by RateFraction. (Consumers map it onto one
	// instance with service.InstanceRate.)
	AggregateRate float64 `spec:"aggregate_rate"`
	// App names the profile under trace.
	App string `spec:"app"`
	// Clients are the named traffic sources.
	Clients []Client `spec:"clients"`
	// Envelope shapes the rate over time (nil: constant).
	Envelope *Envelope `spec:"envelope"`
	// Replay substitutes a recorded arrival trace for generated traffic.
	Replay *Replay `spec:"replay"`
	// Node places the app (and antagonists) on one machine.
	Node *Placement `spec:"node"`
	// Cluster sizes the distributed run (nil: no cluster phase).
	Cluster *Cluster `spec:"cluster"`
	// Faults injects failures into the cluster phase.
	Faults *Faults `spec:"faults"`
}

// Client is one named traffic source.
type Client struct {
	// ID keys the client's xrand stream; it must be unique.
	ID string `spec:"id"`
	// RateFraction is this client's share of the aggregate rate; the
	// fractions must sum to ~1 (unless the scenario replays a trace).
	RateFraction float64 `spec:"rate_fraction"`
	// SLOClass is "latency" (SLOMs applies) or "besteffort".
	SLOClass string `spec:"slo_class"`
	// SLOMs is the response-time objective in milliseconds.
	SLOMs float64 `spec:"slo_ms"`
	// Arrival selects the inter-arrival process.
	Arrival Arrival `spec:"arrival"`

	// Line is the client's source line.
	Line int `spec:",line"`
}

// Arrival selects a client's inter-arrival process.
type Arrival struct {
	// Process is "poisson", "gamma-bursty", "weibull" or "constant".
	Process string `spec:"process"`
	// CV is the inter-arrival coefficient of variation for gamma-bursty
	// and weibull (>1: burstier than Poisson).
	CV float64 `spec:"cv"`
}

// Arrival process names.
const (
	ProcPoisson  = "poisson"
	ProcGamma    = "gamma-bursty"
	ProcWeibull  = "weibull"
	ProcConstant = "constant"
)

// Envelope modulates the aggregate rate over the scenario window.
type Envelope struct {
	// Kind is "constant", "diurnal", "flash-crowd" or "ramp".
	Kind string `spec:"kind"`
	// PeriodS is the diurnal sine period in seconds.
	PeriodS float64 `spec:"period_s"`
	// Amplitude is the diurnal modulation depth in [0, 1).
	Amplitude float64 `spec:"amplitude"`
	// AtS/DurS bound the flash-crowd step, which multiplies the rate by
	// Factor inside [AtS, AtS+DurS).
	AtS  float64 `spec:"at_s"`
	DurS float64 `spec:"dur_s"`
	// Factor is the flash-crowd step multiplier.
	Factor float64 `spec:"factor"`
	// From/To are the ramp's start and end rate multipliers.
	From float64 `spec:"from"`
	To   float64 `spec:"to"`

	// Line is the envelope's source line.
	Line int `spec:",line"`
}

// Envelope kinds.
const (
	EnvConstant = "constant"
	EnvDiurnal  = "diurnal"
	EnvFlash    = "flash-crowd"
	EnvRamp     = "ramp"
)

// Replay substitutes a recorded arrival trace for generated arrivals.
type Replay struct {
	// CSV is the trace path, resolved relative to the document by the
	// loader (see ResolveReplay). Rows are "t_ms,client".
	CSV string `spec:"csv"`
	// Rows is the resolved trace.
	Rows []ReplayRow

	// Line is the replay's source line.
	Line int `spec:",line"`
}

// ReplayRow is one recorded arrival.
type ReplayRow struct {
	// TMS is the arrival time in milliseconds from scenario start.
	TMS float64
	// Client is the client ID the arrival belongs to.
	Client string
}

// Placement describes the single-node arrangement: the traced app plus
// co-located antagonists.
type Placement struct {
	// Cores is the machine's core count (0: the node default).
	Cores int `spec:"cores"`
	// HT enables hyperthread sibling pairs.
	HT bool `spec:"ht"`
	// Threads overrides the app's thread count (0: profile default).
	Threads int `spec:"threads"`
	// TargetCores pins the app to specific cores.
	TargetCores []int `spec:"target_cores"`
	// Seed is the machine seed (consumers fold their own seed in).
	Seed uint64 `spec:"seed"`
	// CollectSwitchPeriods records context-switch period samples.
	CollectSwitchPeriods bool `spec:"collect_switch_periods"`
	// CoRunners are co-located antagonist workloads.
	CoRunners []CoRunner `spec:"co_runners"`
}

// CoRunner places one antagonist profile.
type CoRunner struct {
	// Profile names the antagonist's workload profile.
	Profile string `spec:"profile"`
	// Cores pins it to specific cores (nil: profile provisioning).
	Cores []int `spec:"cores"`
	// SeedOffset offsets the machine seed for this antagonist's streams.
	SeedOffset uint64 `spec:"seed_offset"`
}

// Cluster sizes the distributed phase of a scenario.
type Cluster struct {
	// Nodes is the cluster size (0: default).
	Nodes int `spec:"nodes"`
	// CoresPerNode sizes each machine (0: default).
	CoresPerNode int `spec:"cores_per_node"`
	// Replicas is the control-plane replica count (0: default).
	Replicas int `spec:"replicas"`
	// Shards is the API-server store shard count for range-leased
	// reconciliation (0: default, single shard).
	Shards int `spec:"shards"`
	// Requests is the number of trace requests to issue (0: default).
	Requests int `spec:"requests"`
}

// Faults configures fault injection for the cluster phase. Probabilities
// are per-decision; durations are seconds of simulated time.
type Faults struct {
	Seed           uint64  `spec:"seed"`
	PutFail        float64 `spec:"put_fail"`
	InsertFail     float64 `spec:"insert_fail"`
	SessionLoss    float64 `spec:"session_loss"`
	Corrupt        float64 `spec:"corrupt"`
	Truncate       float64 `spec:"truncate"`
	Stall          float64 `spec:"stall"`
	CrashMTBFS     float64 `spec:"crash_mtbf_s"`
	CrashDowntimeS float64 `spec:"crash_downtime_s"`
}

// Parse parses and validates a document. name labels error messages
// (conventionally the file path).
func Parse(name string, data []byte) (*Document, error) {
	tree, err := parseTree(name, data)
	if err != nil {
		return nil, err
	}
	doc, err := decodeDocument(name, tree)
	if err != nil {
		return nil, err
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return doc, nil
}
