// Package cluster is the cloud-native integration layer of EXIST (§4 of
// the paper): a Kubernetes-style API server holding TraceRequest custom
// resources, a reconciling controller that turns requests into node-level
// tracing sessions (applying RCO's temporal and spatial decisions), an
// object store for raw sessions (OSS stand-in), and a structured store
// for decoded results (ODPS stand-in).
//
// The control plane is built for shared, stressed datacenters where
// partial failure is the normal case: store operations retry with
// exponential backoff and jitter, node health is tracked with heartbeat
// leases, lost sessions are re-sampled onto healthy repetitions, and
// per-request deadlines guarantee every TraceRequest reaches a terminal
// phase. All failure modes are driven by the strictly opt-in, seeded
// fault injector in package faults; with no injector attached the control
// plane behaves exactly as a fault-free cluster.
//
// The control plane runs on the cluster's engine and each node machine on
// its own; Run keeps every node clock in lockstep with the control clock
// at each cross-engine edge, so orchestration and node-level scheduling
// interleave deterministically at any worker count.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"exist/internal/binary"
	"exist/internal/core"
	"exist/internal/coverage"
	"exist/internal/decode"
	"exist/internal/faults"
	"exist/internal/node"
	"exist/internal/parallel"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
	"exist/internal/xrand"
)

// Phase is a TraceRequest lifecycle phase.
type Phase string

// TraceRequest phases.
const (
	PhasePending   Phase = "Pending"
	PhaseRunning   Phase = "Running"
	PhaseCompleted Phase = "Completed"
	// PhaseDegraded is terminal: the request finished with partial
	// coverage (some sessions lost to faults and not recoverable).
	PhaseDegraded Phase = "Degraded"
	// PhaseCancelled is terminal: the request was aborted by an operator;
	// whatever was captured before the cancel is kept.
	PhaseCancelled Phase = "Cancelled"
	PhaseFailed    Phase = "Failed"
)

// Terminal reports whether the phase is final.
func (p Phase) Terminal() bool {
	switch p {
	case PhaseCompleted, PhaseDegraded, PhaseCancelled, PhaseFailed:
		return true
	}
	return false
}

// TraceRequestSpec is the user-facing configuration interface: what to
// trace and how, encapsulated as a CRD in the API server.
type TraceRequestSpec struct {
	// App names the application (a workload profile name).
	App string
	// Purpose selects RCO's sampling policy.
	Purpose coverage.Purpose
	// Period overrides the temporal decider when nonzero.
	Period simtime.Duration
	// Nodes restricts tracing to these nodes (nil: spatial sampler picks).
	Nodes []string
	// Deadline bounds the request's total lifetime; past it the request
	// is forced to a terminal phase with whatever coverage it has. Zero
	// uses the cluster default when fault injection is enabled, and no
	// deadline otherwise.
	Deadline simtime.Duration
}

// TraceRequest is the CRD object.
type TraceRequest struct {
	// Name is the object name (unique).
	Name string
	// Spec is the desired state.
	Spec TraceRequestSpec
	// Phase is the observed lifecycle phase.
	Phase Phase
	// ResourceVersion increments on every stored mutation; controllers
	// use it for compare-and-swap updates and watch bookkeeping.
	ResourceVersion int64
	// Message carries failure details; it is cleared when a request
	// recovers from a retried transient failure.
	Message string
	// SessionKeys lists the OSS keys of uploaded sessions.
	SessionKeys []string
	// Planned is the number of sessions RCO's spatial sampler scheduled.
	Planned int
	// Lost counts sessions whose data was destroyed and could not be
	// recovered by re-sampling.
	Lost int
	// Resampled counts replacement sessions opened on healthy nodes
	// after a loss.
	Resampled int

	// pending counts session slots not yet resolved (landed or given up).
	pending   int
	usedNodes coverage.NodeSet
	period    simtime.Duration
	// abandoned marks a request its deadline or an operator's Cancel
	// ended: its in-flight slots were given up, so no landing slot
	// completes it, no lost slot is re-sampled, and the slot rule exempts
	// what it left pending.
	abandoned bool
	// deleted marks a request Delete removed: its cancelled captures
	// still retrying their upload are dropped, so none lands after its
	// stored sessions went.
	deleted    bool
	deadlineEv *simtime.Event
	// resampleSlots records lost session slots (by re-sampling attempt).
	// The record lives on the object — not in controller memory — so a
	// failed-over leader recovers outstanding slots from a relist.
	resampleSlots []int
	// shard is the API-server shard the object lives in (fixed at
	// creation by the name hash); seq is its global creation sequence,
	// used to merge per-shard views back into creation order.
	shard int
	seq   int64
}

// CoverageFraction reports the fraction of planned sessions that landed.
func (r *TraceRequest) CoverageFraction() float64 {
	if r.Planned == 0 {
		return 0
	}
	return float64(len(r.SessionKeys)) / float64(r.Planned)
}

// apiShard is one lock domain of the API server: its own object map,
// creation order, resource-version counter, and shard-scoped watch
// streams. Objects are routed to shards by a stable hash of their name
// (DESIGN.md §15), so a request's shard never changes over its lifetime.
type apiShard struct {
	mu       sync.Mutex
	requests map[string]*TraceRequest
	order    []string
	rv       int64
	live     int // non-terminal objects (the store-write cost driver)
	streams  []*WatchStream
}

// APIServer stores TraceRequests (the Kubernetes API server stand-in),
// split into Config.Shards shards keyed by a stable hash of the request
// name. Every stored mutation bumps the owning shard's resource version
// and fans an event out to that shard's watch streams; phase-transition
// callbacks (Watch) serve operator tooling.
type APIServer struct {
	shards   []*apiShard
	watchers []func(*TraceRequest)
	seq      int64 // global creation sequence, merges List across shards
	evSeq    int64 // global event sequence, merges watch drains
}

// NewAPIServerShards returns an empty API server with n shards
// (n < 1 is treated as 1).
func NewAPIServerShards(n int) *APIServer {
	if n < 1 {
		n = 1
	}
	a := &APIServer{shards: make([]*apiShard, n)}
	for i := range a.shards {
		a.shards[i] = &apiShard{requests: make(map[string]*TraceRequest)}
	}
	return a
}

// Shards returns the shard count.
func (a *APIServer) Shards() int { return len(a.shards) }

// ShardOf returns the shard index a request name routes to.
func (a *APIServer) ShardOf(name string) int {
	return int(hashName(name) % uint64(len(a.shards)))
}

// LiveInShard returns the number of non-terminal objects in a shard —
// the table the store scans on every write (the in-model cost driver of
// DESIGN.md §15).
func (a *APIServer) LiveInShard(si int) int {
	s := a.shards[si]
	s.mu.Lock()
	n := s.live
	s.mu.Unlock()
	return n
}

// Watch registers fn to run on every request phase transition (the watch
// stream engineers' tooling subscribes to).
func (a *APIServer) Watch(fn func(*TraceRequest)) {
	a.watchers = append(a.watchers, fn)
}

// setPhase transitions a request and notifies watchers. A terminal
// phase is final: leaving it is a programming error and panics.
func (a *APIServer) setPhase(r *TraceRequest, phase Phase, msg string) {
	if r.Phase == phase {
		return
	}
	if r.Phase.Terminal() {
		panic(fmt.Sprintf("cluster: request %s cannot leave terminal phase %s for %s", r.Name, r.Phase, phase))
	}
	s := a.shards[r.shard]
	s.mu.Lock()
	r.Phase = phase
	if msg != "" {
		r.Message = msg
	}
	if phase.Terminal() {
		s.live--
	}
	a.bumpLocked(s, r)
	a.emitLocked(s, EventModified, r)
	s.mu.Unlock()
	for _, fn := range a.watchers {
		fn(r)
	}
}

// Create stores a new request in phase Pending.
func (a *APIServer) Create(name string, spec TraceRequestSpec) (*TraceRequest, error) {
	si := a.ShardOf(name)
	s := a.shards[si]
	s.mu.Lock()
	if _, ok := s.requests[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("cluster: trace request %q already exists", name)
	}
	r := &TraceRequest{Name: name, Spec: spec, Phase: PhasePending, shard: si, seq: a.seq}
	a.seq++
	s.requests[name] = r
	s.order = append(s.order, name)
	s.live++
	a.bumpLocked(s, r)
	a.emitLocked(s, EventAdded, r)
	s.mu.Unlock()
	return r, nil
}

// Get retrieves a request.
func (a *APIServer) Get(name string) (*TraceRequest, bool) {
	s := a.shards[a.ShardOf(name)]
	s.mu.Lock()
	r, ok := s.requests[name]
	s.mu.Unlock()
	return r, ok
}

// Delete removes a request from the server. Only requests in a terminal
// phase can be deleted; cancel a live request first.
func (a *APIServer) Delete(name string) error {
	s := a.shards[a.ShardOf(name)]
	s.mu.Lock()
	r, ok := s.requests[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("cluster: trace request %q not found", name)
	}
	if !r.Phase.Terminal() {
		phase := r.Phase
		s.mu.Unlock()
		return fmt.Errorf("cluster: trace request %q is %s; cancel it before deleting", name, phase)
	}
	delete(s.requests, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	a.emitLocked(s, EventDeleted, r)
	s.mu.Unlock()
	return nil
}

// List returns requests in creation order. Across shards the views are
// merged by the global creation sequence, so the result is identical for
// any shard count.
func (a *APIServer) List() []*TraceRequest {
	all := make([]int, len(a.shards))
	for i := range all {
		all[i] = i
	}
	return a.listShards(all)
}

// listShards returns the requests of the given shards in creation order.
func (a *APIServer) listShards(shards []int) []*TraceRequest {
	// k-way merge: each shard's order slice is already ascending in the
	// global creation sequence, so repeatedly taking the smallest head
	// reproduces creation order exactly.
	views := make([][]*TraceRequest, len(shards))
	total := 0
	for i, si := range shards {
		views[i] = a.ListShard(si)
		total += len(views[i])
	}
	out := make([]*TraceRequest, 0, total)
	heads := make([]int, len(views))
	for len(out) < total {
		best := -1
		for i, v := range views {
			if heads[i] >= len(v) {
				continue
			}
			if best < 0 || v[heads[i]].seq < views[best][heads[best]].seq {
				best = i
			}
		}
		out = append(out, views[best][heads[best]])
		heads[best]++
	}
	return out
}

// ListShard returns one shard's requests in creation order.
func (a *APIServer) ListShard(si int) []*TraceRequest {
	s := a.shards[si]
	s.mu.Lock()
	out := make([]*TraceRequest, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.requests[n])
	}
	s.mu.Unlock()
	return out
}

// Node is one worker node: a machine plus its EXIST controller and the
// applications deployed on it.
type Node struct {
	// Name is the node name.
	Name string
	// Machine is the node's simulated OS/hardware.
	Machine *sched.Machine
	// Ctrl is the node's EXIST controller.
	Ctrl *core.Controller
	// Apps maps app name to its process on a machine node. Lite nodes run
	// no processes and keep it nil; placement reads the cluster's
	// per-app node bitsets.
	Apps map[string]*sched.Process
	// MemCapacityMB and MemAllocatedMB model the node's memory ledger
	// (Figure 11: allocation near the ceiling while utilization is low).
	MemCapacityMB  float64
	MemAllocatedMB float64
	// Down marks a crashed node. The flag is the physical truth — the
	// control plane only learns of it through lease expiry or a failed
	// contact attempt.
	Down bool
	// Cordoned marks a node gracefully leaving the fleet (rolling
	// maintenance, autoscaler scale-down): it stops taking new sessions
	// but keeps running — and uploading — the ones it has. Driven by the
	// churn fault shape; always false without it.
	Cordoned bool

	// idx is the node's dense index: its position in Cluster.Nodes and
	// the value request node sets hold.
	idx     int32
	crashes int
	leaves  int
	// lease is the node's stored health-lease expiry. It is the whole
	// lease only for a down or gray node; an up, healthy node's lease
	// also counts the last sweep's renewal (see Cluster.leaseUntil).
	// Leases are only maintained when fault injection is on.
	lease simtime.Time
	// gray caches Faults.GrayNode for the node, a pure function of the
	// fault seed and the node name; the node's beat-delay key sits in
	// Cluster.grayNodes.
	gray bool
	// doneBuf collects sessions that closed while the node was advancing
	// concurrently; the barrier replays them on the control engine.
	doneBuf []doneItem
}

// MgmtStats is the orchestration overhead ledger (Figure 17).
type MgmtStats struct {
	// CPUSeconds is management CPU consumed (core-seconds).
	CPUSeconds float64 `obs:"mgmt_cpu,s"`
	// MemMB is the management pod's resident memory.
	MemMB float64 `obs:"mgmt_mem,MB"`
	// Reconciles counts controller pump runs.
	Reconciles int64 `obs:"reconciles,count"`
	// Stalls counts pump runs lost to injected controller stalls.
	Stalls int64 `obs:"stalls,count"`
	// Retries counts store operations that were re-attempted after a
	// transient failure.
	Retries int64 `obs:"retries,count"`
	// Resamples counts replacement sessions scheduled after a loss.
	Resamples int64 `obs:"resamples,count"`
	// LeaseExpiries counts node failures detected through lease lapse.
	LeaseExpiries int64 `obs:"lease_expiries,count"`

	// Syncs counts work-queue items processed by controller replicas.
	Syncs int64 `obs:"syncs,count"`
	// Requeues counts rate-limited re-adds of failing work items.
	Requeues int64 `obs:"requeues,count"`
	// Conflicts counts compare-and-swap updates lost to a concurrent
	// writer.
	Conflicts int64 `obs:"conflicts,count"`
	// FencedOps counts store operations rejected because the acting
	// replica's fencing token was stale (a deposed leader).
	FencedOps int64 `obs:"fenced_ops,count"`
	// Elections counts leadership acquisitions (first election,
	// failovers, and re-acquires after a lapse).
	Elections int64 `obs:"elections,count"`
	// FalseSuspicions counts leases that lapsed on a live node because
	// its heartbeats arrived late (gray failure).
	FalseSuspicions int64 `obs:"false_suspicions,count"`
	// Relists counts stale-watch resynchronization relists (shard-scoped
	// in the sharded control plane; election relists are not included).
	Relists int64 `obs:"relists,count"`
}

// In-model CPU costs of the control plane's store traffic (DESIGN.md
// §15). The API server is modeled as a single-writer table per shard:
// every operation pays a base cost plus a scan over the shard's live
// objects, which is what sharding amortizes — per-shard tables are
// smaller by the shard count. These charges are pure ledger (they
// schedule no events).
const (
	// syncBaseCPU is one work-queue sync's fixed cost.
	syncBaseCPU = 20e-6
	// storeScanCPU is the per-live-object scan cost a store operation
	// pays in its target shard.
	storeScanCPU = 0.2e-6
	// relistBaseCPU and relistObjCPU price a shard relist: fixed cost
	// plus a per-object charge for the objects actually listed.
	relistBaseCPU = 100e-6
	relistObjCPU  = 1e-6
)

// relistCPU prices a relist of a shard holding k live objects.
func relistCPU(k int) float64 { return relistBaseCPU + relistObjCPU*float64(k) }

// storeOpCPU models one API-server operation against a shard: the
// single-writer scan over that shard's live objects.
func (c *Cluster) storeOpCPU(shard int) float64 {
	return storeScanCPU * float64(c.API.LiveInShard(shard))
}

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the node count.
	Nodes int
	// CoresPerNode sizes each node's machine.
	CoresPerNode int
	// Seed drives all cluster randomness.
	Seed uint64

	// Faults, when non-nil, enables seeded fault injection and the
	// resilience machinery (leases, deadlines, re-sampling). Strictly
	// opt-in: a nil injector leaves every fault path dormant and the
	// cluster bit-identical to a fault-free run.
	Faults *faults.Injector
	// RequestDeadline is the default per-request deadline applied when
	// Faults is set and the spec gives none (default 10 s).
	RequestDeadline simtime.Duration

	// UploadBatch coalesces that many finished sessions into one
	// object-store PUT, amortizing per-upload overhead; a partially
	// filled batch flushes queueTick (20 ms) after its first session
	// joined. A batch retries as a unit with exponential backoff and
	// jitter. 0 or 1 ships each session alone, keyed by its own object
	// key.
	UploadBatch int

	// Replicas is the number of controller replicas running lease-based
	// leader election over a watch-driven work queue (<= 0 means 1).
	Replicas int
	// Shards splits the API server (and the range leases, watch streams,
	// and work queues) into that many shards keyed by a stable hash of
	// the request name, letting replicas own disjoint shard ranges and
	// reconcile concurrently. <= 1 keeps a single shard.
	Shards int

	// Jobs is how many goroutines advance the node machines, each on
	// its own engine, between control-plane barriers (DESIGN.md §14).
	// The control plane stays on Eng and only runs while every node
	// clock is parked at its time, so results are byte-identical at any
	// Jobs value. <= 1 means one worker. Ignored for Lite clusters,
	// whose nodes have no machines to advance.
	Jobs int

	// Lite, when true, builds bookkeeping-only nodes: no machines are
	// provisioned and sessions are virtual timers rather than real
	// traced workloads. The control plane (leases, elections, faults,
	// uploads, phases) behaves identically, which is what lets chaos
	// experiments drive 10k+ node fleets.
	Lite bool
}

// DefaultConfig returns the paper's ten-node evaluation cluster.
func DefaultConfig() Config {
	return Config{Nodes: 10, CoresPerNode: 16, Seed: 1}
}

// sessionPrefix prefixes every session's object key; the rest of the key
// is the session ID.
const sessionPrefix = "sessions/"

// sessionKey returns the object key of a session: sessionPrefix plus its
// session ID "<request>/<node>", or "<request>/<node>/r<attempt>" for a
// replacement, built in one concatenation.
func sessionKey(r *TraceRequest, n *Node, attempt int) string {
	if attempt == 0 {
		return sessionPrefix + r.Name + "/" + n.Name
	}
	return sessionPrefix + r.Name + "/" + n.Name + "/r" + strconv.Itoa(attempt)
}

// doneItem is one machine window close buffered during a concurrent node
// advance, replayed on the control engine at the barrier.
type doneItem struct {
	at   simtime.Time
	seq  int64
	slot int32
}

// sessionSlot is one session in the cluster's session table. A Lite
// session is bookkeeping and a completion timer, no traced workload; a
// machine session also holds its node's tracing session. A free slot has
// a nil node.
type sessionSlot struct {
	req  *TraceRequest
	node *Node
	// key is the session's object key: sessionPrefix + session ID.
	key string
	// sess is a machine session's tracing session; nil for Lite.
	sess *core.Session
	// fire is the slot's Lite timer callback, built once when the slot is
	// made and reused by every session that takes the slot.
	fire func(now simtime.Time)
	// endAt is when a machine session's window timer fires (open time +
	// period). The barrier may not advance any node past the earliest
	// endAt: the completion calls back into the control plane.
	endAt simtime.Time
	// openSeq orders simultaneous machine window closes during barrier
	// replay: sessions opened earlier armed their timers earlier, so at
	// equal times they close in open order, on one node's engine or
	// across nodes.
	openSeq int64
	// attempt is 0 for an originally planned session, k for the k-th
	// replacement in its slot's re-sampling chain.
	attempt int32
	// lost marks data destroyed by a node crash before upload.
	lost bool
	// closed marks a resolved session. A crash closes a Lite session
	// before its timer fires; the slot stays taken until then.
	closed bool
}

// slotChunk is the slot count of one sessionTable chunk.
const slotChunk = 1024

// sessionTable holds a cluster's sessions, Lite or machine, in fixed-size
// chunks, so a slot never moves as the table grows and its fire closure
// can keep pointing at it. Freed slots are reused from a free list. A
// Lite slot is freed when its timer fires, so a crash-closed slot is not
// handed out again while its old timer is pending; a machine slot is
// freed when its window close resolves it.
type sessionTable struct {
	chunks []*[slotChunk]sessionSlot
	free   []int32
	// n is the number of slots ever made: the table's high-water mark.
	n int32
}

// at returns slot i.
func (t *sessionTable) at(i int32) *sessionSlot { return &t.chunks[i/slotChunk][i%slotChunk] }

// alloc takes a free slot, or makes one whose fire callback is
// c.endSlot on it, and returns its index.
func (t *sessionTable) alloc(c *Cluster) int32 {
	if k := len(t.free); k > 0 {
		i := t.free[k-1]
		t.free = t.free[:k-1]
		return i
	}
	if t.n%slotChunk == 0 {
		t.chunks = append(t.chunks, new([slotChunk]sessionSlot))
	}
	i := t.n
	t.at(i).fire = func(simtime.Time) { c.endSlot(i) }
	t.n++
	return i
}

// release clears slot i, so it pins no request or capture, and frees it.
func (t *sessionTable) release(i int32) {
	sl := t.at(i)
	sl.req, sl.node, sl.key, sl.sess = nil, nil, "", nil
	t.free = append(t.free, i)
}

// Cluster is the whole deployment.
type Cluster struct {
	// Cfg is the construction configuration.
	Cfg Config
	// Eng is the control plane's virtual clock (and a Lite cluster's only
	// one); node machines run on their own engines.
	Eng *simtime.Engine
	// API is the control-plane store.
	API *APIServer
	// Nodes are the workers, indexed by their dense index; each points
	// into one contiguous backing array.
	Nodes []*Node
	// OSS is the raw-session object store.
	OSS *ObjectStore
	// ODPS is the structured result store.
	ODPS *DataStore
	// Mgmt is the orchestration overhead ledger.
	Mgmt MgmtStats
	// Uploads is the data-path volume ledger.
	Uploads UploadStats
	// Binaries is the binary repository the decoder consults.
	Binaries map[string]*binary.Program
	// Controllers are the control-plane replicas.
	Controllers []*Controller
	// Leases is the store-side leader-election record.
	Leases *LeaseStore
	// Readopts samples, in milliseconds, how long each leadership
	// change took to re-adopt every in-flight request.
	Readopts []float64
	// maxOwners and ownersErr record the owner rule (see Safety).
	maxOwners int
	ownersErr error

	profiles map[string]workload.Profile
	// apps holds one bitset per deployed app: bit i is set when the app
	// is deployed on the node with index i.
	apps          map[string]nodeBits
	rng           *xrand.Rand
	retryRNG      *xrand.Rand
	resampleRNG   *xrand.Rand
	slots         sessionTable
	pendingUpload []uploadItem
	batchSeq      int64
	openSeq       int64
	// queueSeq is the cluster-global work-queue enqueue sequence; shard
	// queues merge pops by it (see queueItem).
	queueSeq int64
	// advancing is true while the node engines run concurrently between
	// barriers; session completions observed then are buffered instead of
	// calling into control-plane state from node goroutines.
	advancing bool

	// Node liveness, armed only under fault injection. lastBeat is the
	// time of the last lease sweep and beats the number of sweeps so far.
	lastBeat simtime.Time
	beats    int64
	// downNodes and grayNodes hold, in index order, the nodes whose beat
	// does more than renew: crashed nodes and gray ones.
	downNodes []int32
	grayNodes []grayNode
	// faultTable holds every node's next crash and churn leave; faultEv
	// is the one event armed at its minimum.
	faultTable faultHeap
	faultEv    *simtime.Event
	// sweepFn and faultFn cache the sweep and timetable callbacks.
	sweepFn, faultFn func(now simtime.Time)
}

// UploadStats tracks what the data path ships to the object store:
// sessions landed, PUT requests issued for them, bytes actually on the
// wire (v2 encoding), and what the same sessions would have cost in the
// v1 format — the compression ratio of the deployment is
// V1Bytes/WireBytes.
type UploadStats struct {
	// Sessions is the number of session blobs successfully uploaded.
	Sessions int64 `obs:"upload_sessions,count"`
	// Batches is the number of successful PUT requests carrying them.
	Batches int64 `obs:"upload_puts,count"`
	// WireBytes is the total encoded volume shipped.
	WireBytes int64 `obs:"upload_wire,B"`
	// V1Bytes is the v1-equivalent volume of the same sessions.
	V1Bytes int64 `obs:"upload_v1,B"`
}

// nodeBits is a set of nodes by dense index, one bit per node.
type nodeBits []uint64

// newNodeBits returns an empty set sized for n nodes.
func newNodeBits(n int) nodeBits { return make(nodeBits, (n+63)/64) }

// has reports whether node index i is in the set (false for a nil set).
func (b nodeBits) has(i int32) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

// add puts node index i into the set.
func (b nodeBits) add(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// grayNode is one gray node in the lease sweep: its index and the label
// hash its beat delays are drawn from (faults.Injector.GrayBeats).
type grayNode struct {
	idx   int32
	beats xrand.SplitHash
}

// uploadItem is one finished session waiting in the current upload batch:
// its request, node, object key and attempt, and the blob to ship.
type uploadItem struct {
	req     *TraceRequest
	node    *Node
	key     string
	attempt int
	blob    []byte
	res     *trace.Session
}

// blobsPerNode sizes the object store: the session blobs a cluster is
// expected to hold per node. It is the measured traffic of the Lite
// fleets (the fleet benchmark files about 1.6 sessions per node, the
// ctrlplane experiment exactly 2), whose blob map would otherwise grow
// from empty through every rehash.
const blobsPerNode = 2

// New builds a cluster, gives each machine node its own engine, and
// starts the controller replicas.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic("cluster: invalid config")
	}
	if cfg.RequestDeadline <= 0 {
		cfg.RequestDeadline = 10 * simtime.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.UploadBatch <= 0 {
		cfg.UploadBatch = 1
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	c := &Cluster{
		Cfg:         cfg,
		Eng:         simtime.NewEngine(),
		API:         NewAPIServerShards(cfg.Shards),
		OSS:         newObjectStore(blobsPerNode * cfg.Nodes),
		ODPS:        NewDataStore(),
		Binaries:    make(map[string]*binary.Program),
		profiles:    make(map[string]workload.Profile),
		apps:        make(map[string]nodeBits),
		rng:         xrand.Split(cfg.Seed, "cluster"),
		retryRNG:    xrand.Split(cfg.Seed, "cluster/retry"),
		resampleRNG: xrand.Split(cfg.Seed, "cluster/resample"),
		Mgmt:        MgmtStats{MemMB: 40}, // the RCO management pod's footprint
	}
	nodes := make([]Node, cfg.Nodes)
	c.Nodes = make([]*Node, cfg.Nodes)
	for i := range nodes {
		n := &nodes[i]
		n.Name = nodePrefix + strconv.Itoa(i)
		n.idx = int32(i)
		n.MemCapacityMB = 384 * 1024 / float64(cfg.Nodes) // 384 GB class nodes scaled per config
		if !cfg.Lite {
			n.Apps = make(map[string]*sched.Process)
			// The machine runs on its own engine; the barrier in Run
			// keeps it in lockstep with the control plane.
			rt := node.Provision(node.Spec{
				Cores: cfg.CoresPerNode,
				HT:    true, // sched default; nodes keep hyperthreaded topology
				Seed:  cfg.Seed + uint64(i)*7919,
			})
			n.Machine = rt.Machine
			n.Ctrl = rt.Controller()
		}
		c.Nodes[i] = n
	}
	// The resilience machinery (leases, crash schedules) is armed only
	// when fault injection is on, so fault-free runs schedule exactly the
	// events they always did.
	if cfg.Faults != nil {
		c.OSS.UseFaults(cfg.Faults)
		c.ODPS.UseFaults(cfg.Faults)
		c.sweepFn, c.faultFn = c.sweep, c.fireFaults
		c.Eng.AfterDetached(heartbeatEvery, c.sweepFn)
		for _, n := range c.Nodes {
			n.lease = leaseTTL
			if n.gray = cfg.Faults.GrayNode(n.Name); n.gray {
				c.grayNodes = append(c.grayNodes, grayNode{idx: n.idx, beats: cfg.Faults.GrayBeats(n.Name)})
			}
			c.scheduleCrash(n)
			c.scheduleChurn(n)
		}
	}
	c.Leases = NewLeaseStore(cfg.Shards)
	c.startControllers()
	return c
}

// nodePrefix prefixes every node name; the rest is the node's index.
const nodePrefix = "node-"

// Node returns a node by name. Names are nodePrefix plus the dense
// index, so the lookup parses the index instead of hashing the name.
func (c *Cluster) Node(name string) (*Node, bool) {
	digits, ok := strings.CutPrefix(name, nodePrefix)
	if !ok {
		return nil, false
	}
	i, err := strconv.Atoi(digits)
	if err != nil || i < 0 || i >= len(c.Nodes) || c.Nodes[i].Name != name {
		return nil, false
	}
	return c.Nodes[i], true
}

// Deploy installs a workload profile on the named nodes (all nodes when
// names is nil) and registers its binary in the repository. Placement is
// the app's node bitset; a machine node also records the process.
func (c *Cluster) Deploy(p workload.Profile, names []string, opt workload.InstallOpts) error {
	if opt.Walker && opt.Prog == nil {
		opt.Prog = node.Program(p, opt.Seed)
	}
	c.profiles[p.Name] = p
	if opt.Prog != nil {
		c.Binaries[p.Name] = opt.Prog
	}
	placed := c.apps[p.Name]
	if placed == nil {
		placed = newNodeBits(len(c.Nodes))
		c.apps[p.Name] = placed
	}
	count := len(names)
	if names == nil {
		count = len(c.Nodes)
	}
	for i := 0; i < count; i++ {
		var n *Node
		if names == nil {
			n = c.Nodes[i]
		} else {
			var ok bool
			if n, ok = c.Node(names[i]); !ok {
				return fmt.Errorf("cluster: unknown node %q", names[i])
			}
		}
		if placed.has(n.idx) {
			return fmt.Errorf("cluster: app %q already on %q", p.Name, n.Name)
		}
		placed.add(n.idx)
		// A Lite deployment is bookkeeping only: the app is placed on the
		// node (placement, health, sessions all work) but no process runs.
		if !c.Cfg.Lite {
			nodeOpt := opt
			nodeOpt.Seed = opt.Seed ^ hashName(n.Name)
			n.Apps[p.Name] = p.Install(n.Machine, nodeOpt)
		}
		// Ledger: services reserve memory aggressively (Figure 11).
		n.MemAllocatedMB += 0.6 * n.MemCapacityMB / float64(len(c.Nodes))
	}
	return nil
}

// Request files a TraceRequest through the configuration interface. The
// request's deadline is armed immediately so even a fully stalled
// controller cannot leave it hanging.
func (c *Cluster) Request(name string, spec TraceRequestSpec) (*TraceRequest, error) {
	if _, ok := c.profiles[spec.App]; !ok {
		return nil, fmt.Errorf("cluster: app %q not deployed", spec.App)
	}
	r, err := c.API.Create(name, spec)
	if err != nil {
		return nil, err
	}
	c.armDeadline(r, c.Eng.Now())
	return r, nil
}

// Run advances the whole cluster to the given time. A Lite cluster has
// only the control engine. Otherwise the node machines advance on
// Config.Jobs workers between control-plane events; see runParallel for
// why the result does not depend on the worker count.
func (c *Cluster) Run(until simtime.Time) {
	if c.Cfg.Lite {
		c.Eng.RunUntil(until)
		return
	}
	c.runParallel(until)
}

// runParallel is the conservative-barrier scheduler for per-node engines.
//
// The cluster's event graph has exactly two cross-engine edges. Control →
// node: a control-plane event opens, cancels, or crashes sessions on a
// node, synchronously, at the control clock's current time. Node →
// control: a session window closes on the node's clock and its OnDone
// callback resolves the slot on the control plane. Everything else is
// node-local (machine scheduling, tracing) or control-local (reconciles,
// heartbeats, retries, stores).
//
// Both edges are honored by never letting any clock run past the next
// potential edge: each round picks the horizon tc = min(next control
// event, earliest in-flight window close, until), advances every node
// engine to tc concurrently — their event streams are mutually
// independent below tc — then replays the window closes that were
// buffered during the advance in (time, open-order), and finally fires
// the control events at tc with every node clock parked exactly there.
// Control code therefore always observes node clocks equal to its own,
// and node sessions open and close in the same order and at the same
// times whatever the worker count. Each node's events run on its own
// engine in a fixed order, so the run's output is byte-identical at any
// Jobs value.
func (c *Cluster) runParallel(until simtime.Time) {
	for {
		tc := until
		if t, ok := c.Eng.PeekTime(); ok && t < tc {
			tc = t
		}
		if t, ok := c.tracerFreeAt(nil); ok && t < tc {
			tc = t
		}

		// Advance all node machines to tc on worker goroutines. Window
		// closes at exactly tc buffer themselves (see openSession).
		c.advancing = true
		parallel.ForEach(len(c.Nodes), c.Cfg.Jobs, func(i int) {
			c.Nodes[i].Machine.Eng.RunUntil(tc)
		})
		c.advancing = false

		// Replay buffered window closes on the control clock. They all
		// landed at tc (earlier closes would have bounded tc); at equal
		// times they resolve in session-open order, the order their
		// timers were armed.
		var done []doneItem
		for _, n := range c.Nodes {
			done = append(done, n.doneBuf...)
			n.doneBuf = n.doneBuf[:0]
		}
		sort.Slice(done, func(i, j int) bool {
			if done[i].at != done[j].at {
				return done[i].at < done[j].at
			}
			return done[i].seq < done[j].seq
		})
		if now := c.Eng.Now(); tc > now {
			c.Eng.Advance(tc - now)
		}
		for _, d := range done {
			c.endSlot(d.slot)
		}

		// Fire the control events at tc (which may open or cancel node
		// sessions — every node clock now equals the control clock).
		c.Eng.RunUntil(tc)
		if tc >= until {
			return
		}
	}
}

// Node liveness. Every node beats at each multiple of heartbeatEvery, and
// its k-th beat is the cluster's k-th, so one sweep per period stands for
// all of them: an up node that is not gray has lease
// max(n.lease, lastBeat+leaseTTL), and the sweep visits only the nodes
// whose beat does more — down nodes, whose lapse it detects, and gray
// nodes, whose beats arrive late. Node crashes and churn leaves wait in
// one timetable behind one armed event. The sweep and the timetable event
// each hold one position among the events at their instant, so another
// event at exactly that nanosecond fires wholly before or after them
// (TestCrashAtBeatInstant). Liveness runs only when Faults is set.
const (
	// heartbeatEvery is the node lease heartbeat period.
	heartbeatEvery = 200 * simtime.Millisecond
	// leaseTTL is how long a heartbeat keeps a node's lease valid.
	leaseTTL = 500 * simtime.Millisecond
)

// sweep is one heartbeat period. The sweep after a down node's lease
// lapsed counts the lease expiry the control plane detects. A gray
// node's beat leaves on time but arrives late: its lease can lapse while
// the node is alive and working — a false suspicion, the signature of
// gray failure.
func (c *Cluster) sweep(now simtime.Time) {
	for _, i := range c.downNodes {
		if l := c.Nodes[i].lease; l <= now && l > now-heartbeatEvery {
			c.Mgmt.LeaseExpiries++
		}
	}
	for _, g := range c.grayNodes {
		n := c.Nodes[g.idx]
		if n.Down {
			continue
		}
		if d := c.Cfg.Faults.GrayBeatDelay(g.beats, c.beats); d > 0 {
			c.Eng.AfterDetached(d, func(arrived simtime.Time) {
				if n.Down {
					return
				}
				if n.lease <= arrived {
					c.Mgmt.FalseSuspicions++
				}
				n.lease = max(n.lease, now+leaseTTL)
			})
		} else {
			n.lease = now + leaseTTL
		}
	}
	c.lastBeat = now
	c.beats++
	c.Eng.AfterDetached(heartbeatEvery, c.sweepFn)
}

// leaseUntil is the node's lease expiry: the stored lease, renewed by the
// last sweep when the node is up and not gray.
func (c *Cluster) leaseUntil(n *Node) simtime.Time {
	if n.Down || n.gray {
		return n.lease
	}
	return max(n.lease, c.lastBeat+leaseTTL)
}

// faultKind tells a node crash from a churn leave in the timetable.
type faultKind uint8

const (
	faultCrash faultKind = iota
	faultLeave
)

// nodeFault is one timetable entry: node idx's next fault of a kind.
type nodeFault struct {
	at   simtime.Time
	idx  int32
	kind faultKind
}

// before orders entries by (at, idx, kind).
func (a nodeFault) before(b nodeFault) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return a.kind < b.kind
}

// faultHeap is a binary min-heap of node faults.
type faultHeap []nodeFault

func (h *faultHeap) push(f nodeFault) {
	*h = append(*h, f)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !f.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = f
}

func (h *faultHeap) pop() nodeFault {
	s := *h
	top, last := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	if len(s) == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= len(s) {
			break
		}
		if r := l + 1; r < len(s) && s[r].before(s[l]) {
			l = r
		}
		if !s[l].before(last) {
			break
		}
		s[i] = s[l]
		i = l
	}
	s[i] = last
	return top
}

// pushFault adds a timetable entry, re-arming the timetable event when
// the entry is the new minimum. Entries are pushed only at New and by
// restarts and rejoins, never while the timetable fires.
func (c *Cluster) pushFault(f nodeFault) {
	c.faultTable.push(f)
	if c.faultEv.Pending() && c.faultEv.At() <= f.at {
		return
	}
	c.faultEv.Cancel()
	c.faultEv = c.Eng.Schedule(f.at, c.faultFn)
}

// fireFaults runs every timetable entry due now, in (at, idx, kind)
// order, and re-arms at the next one.
func (c *Cluster) fireFaults(now simtime.Time) {
	for len(c.faultTable) > 0 && c.faultTable[0].at <= now {
		f := c.faultTable.pop()
		n := c.Nodes[f.idx]
		if f.kind == faultCrash {
			c.crash(n, now)
		} else {
			c.leave(n, now)
		}
	}
	if len(c.faultTable) > 0 {
		c.faultEv = c.Eng.Schedule(c.faultTable[0].at, c.faultFn)
	}
}

// scheduleCrash enters the node's next injected crash in the timetable,
// if crash injection is configured.
func (c *Cluster) scheduleCrash(n *Node) {
	if d, ok := c.Cfg.Faults.NextCrash(n.Name, n.crashes); ok {
		c.pushFault(nodeFault{at: c.Eng.Now() + d, idx: n.idx, kind: faultCrash})
	}
}

// crash is an injected crash: the node goes down and restarts, with a
// fresh lease and its next crash scheduled, after the crash downtime.
func (c *Cluster) crash(n *Node, now simtime.Time) {
	n.crashes++
	c.crashNode(n)
	c.Eng.AfterDetached(c.Cfg.Faults.Config().CrashDowntime, func(now simtime.Time) {
		n.Down = false
		n.lease = now + leaseTTL
		if i, found := slices.BinarySearch(c.downNodes, n.idx); found {
			c.downNodes = slices.Delete(c.downNodes, i, i+1)
		}
		c.scheduleCrash(n)
	})
}

// crashNode takes a node down: its lease freezes at what the last beat
// renewed, and every in-flight session on it is destroyed before upload.
// Sessions are closed in session-ID order so fault runs stay
// deterministic.
func (c *Cluster) crashNode(n *Node) {
	c.Cfg.Faults.CountCrash()
	n.lease = c.leaseUntil(n)
	n.Down = true
	if i, found := slices.BinarySearch(c.downNodes, n.idx); !found {
		c.downNodes = slices.Insert(c.downNodes, i, n.idx)
	}
	// Key order is session-ID order: keys share their prefix. Crashes are
	// rare, so they scan the table rather than every session paying for a
	// per-node list.
	var doomed []*sessionSlot
	for i := int32(0); i < c.slots.n; i++ {
		if sl := c.slots.at(i); sl.node == n && !sl.closed {
			doomed = append(doomed, sl)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].key < doomed[j].key })
	for _, sl := range doomed {
		sl.lost = true
		if sl.sess != nil {
			sl.sess.Cancel() // fires OnDone, which closes and frees the slot
		} else {
			c.closeSlot(sl) // the slot stays taken until its timer fires
		}
	}
}

// nodeHealthy reports whether the control plane considers a node
// schedulable. Without fault injection every node is healthy; with it,
// health is the lease — a crashed node keeps passing until its lease
// lapses, exactly the detection delay a real lease scheme has. A
// cordoned node (graceful leave) is excluded immediately: leaving is
// announced, not detected.
func (c *Cluster) nodeHealthy(n *Node, now simtime.Time) bool {
	if c.Cfg.Faults == nil {
		return true
	}
	return !n.Cordoned && c.leaseUntil(n) > now
}

// scheduleChurn enters the node's next graceful leave in the timetable,
// if churn injection is configured. Churn is continuous: leave → drain →
// rejoin → next leave, each interval drawn from the injector's seeded
// schedule.
func (c *Cluster) scheduleChurn(n *Node) {
	if d, _, ok := c.Cfg.Faults.NextChurn(n.Name, n.leaves); ok {
		c.pushFault(nodeFault{at: c.Eng.Now() + d, idx: n.idx, kind: faultLeave})
	}
}

// leave cordons the node (no new sessions; in-flight ones drain to
// completion and still upload); the rejoin, after the leave's drawn
// downtime, uncordons it with a fresh lease, making it immediately
// schedulable again.
func (c *Cluster) leave(n *Node, now simtime.Time) {
	_, down, _ := c.Cfg.Faults.NextChurn(n.Name, n.leaves)
	n.leaves++
	c.Cfg.Faults.CountLeave()
	n.Cordoned = true
	c.Eng.AfterDetached(down, func(now simtime.Time) {
		n.Cordoned = false
		n.lease = now + leaseTTL
		c.Cfg.Faults.CountJoin()
		c.scheduleChurn(n)
	})
}

// armDeadline schedules the request's terminal deadline once. Deadlines
// default on only under fault injection; a fault-free cluster arms one
// only when the spec asks for it.
func (c *Cluster) armDeadline(r *TraceRequest, now simtime.Time) {
	if r.deadlineEv != nil {
		return
	}
	d := r.Spec.Deadline
	if d <= 0 && c.Cfg.Faults != nil {
		d = c.Cfg.RequestDeadline
	}
	if d <= 0 {
		return
	}
	r.deadlineEv = c.Eng.After(d, func(now simtime.Time) {
		r.deadlineEv = nil
		c.expire(r, now)
	})
}

// expire forces a stuck request to a terminal phase at its deadline:
// whatever coverage landed is kept, everything still in flight is
// abandoned.
func (c *Cluster) expire(r *TraceRequest, now simtime.Time) {
	if r.Phase.Terminal() {
		return
	}
	r.abandoned = true
	if len(r.SessionKeys) > 0 {
		c.terminate(r, PhaseDegraded, fmt.Sprintf(
			"deadline exceeded: %d/%d sessions captured", len(r.SessionKeys), r.Planned))
	} else {
		c.terminate(r, PhaseFailed, "deadline exceeded with no sessions captured")
	}
	for _, s := range c.openSessions(r) {
		s.Cancel() // closeSlot drops the data: the request is terminal
	}
}

// terminate moves a request to a terminal phase and disarms its deadline.
func (c *Cluster) terminate(r *TraceRequest, phase Phase, msg string) {
	if r.deadlineEv != nil {
		r.deadlineEv.Cancel()
		r.deadlineEv = nil
	}
	c.API.setPhase(r, phase, msg)
}

// plan computes one request's temporal decision (period) and spatial
// sampling (selected nodes). retry is set when no healthy host exists
// right now but fault injection means one may recover.
func (c *Cluster) plan(r *TraceRequest, now simtime.Time) (period simtime.Duration, selected []*Node, retry bool, err error) {
	profile := c.profiles[r.Spec.App]
	prog := c.Binaries[r.Spec.App]
	placed := c.apps[r.Spec.App]

	// Temporal decider: period from app complexity unless overridden.
	period = r.Spec.Period
	if period <= 0 {
		var binBytes uint64
		if prog != nil {
			binBytes = prog.TextSize
		}
		period = coverage.DecidePeriod(coverage.Complexity{
			Priority:    profile.Priority,
			BinaryBytes: binBytes,
			PastIssues:  profile.PastIssues,
		})
	}

	// Spatial sampler: pick repetitions among healthy nodes hosting the
	// app (health is lease-based and always true without fault injection).
	if r.Spec.Nodes != nil {
		// Pinned placement: resolve the named nodes directly instead of
		// scanning the whole fleet — at 100k nodes the full scan per
		// request dominates the control plane's real CPU. The fleet-wide
		// scan only runs in the rare nothing-selected case, where the
		// retry-vs-fail decision needs it.
		for _, want := range r.Spec.Nodes {
			n, ok := c.Node(want)
			if !ok {
				continue
			}
			if placed.has(n.idx) && c.nodeHealthy(n, now) {
				selected = append(selected, n)
			}
		}
		if len(selected) == 0 {
			healthyAnywhere := false
			for _, n := range c.Nodes {
				if placed.has(n.idx) && c.nodeHealthy(n, now) {
					healthyAnywhere = true
					break
				}
			}
			if !healthyAnywhere {
				if c.Cfg.Faults != nil {
					return 0, nil, true, nil
				}
				return 0, nil, false, fmt.Errorf("app %q deployed nowhere", r.Spec.App)
			}
			return 0, nil, false, fmt.Errorf("no nodes selected for %q", r.Spec.App)
		}
	} else {
		var hosts []*Node
		for _, n := range c.Nodes {
			if placed.has(n.idx) && c.nodeHealthy(n, now) {
				hosts = append(hosts, n)
			}
		}
		if len(hosts) == 0 {
			if c.Cfg.Faults != nil {
				return 0, nil, true, nil
			}
			return 0, nil, false, fmt.Errorf("app %q deployed nowhere", r.Spec.App)
		}
		reps := make([]coverage.Repetition, len(hosts))
		for i, n := range hosts {
			reps[i] = coverage.Repetition{Node: n.Name}
		}
		idx := coverage.SelectRepetitions(reps, coverage.SampleSpec{
			Purpose:  r.Spec.Purpose,
			Priority: profile.Priority,
		}, c.rng)
		for _, i := range idx {
			selected = append(selected, hosts[i])
		}
		if len(selected) == 0 {
			return 0, nil, false, fmt.Errorf("no nodes selected for %q", r.Spec.App)
		}
	}

	return period, selected, false, nil
}

// start records the plan on the request object and opens its planned
// sessions. The caller already won the Pending → Running CAS, so this
// can never race another replica. Under fault injection an unreachable
// node (or one whose tracer another request's window holds) is a
// survivable event: the slot stays pending and is routed to re-sampling.
func (c *Cluster) start(r *TraceRequest, period simtime.Duration, selected []*Node) error {
	r.period = period
	r.Planned = len(selected)
	r.usedNodes = make(coverage.NodeSet, 0, len(selected))
	for _, n := range selected {
		if err := c.openSession(r, n, 0); err != nil {
			if c.Cfg.Faults == nil {
				return err
			}
			r.pending++
			c.loseSlot(r, 0)
			continue
		}
		r.pending++
	}
	return nil
}

// loseSlot routes one lost session slot to re-sampling. The slot is
// recorded on the request object (so it survives failover) and the watch
// event wakes the shard's owner.
func (c *Cluster) loseSlot(r *TraceRequest, attempt int) {
	r.resampleSlots = append(r.resampleSlots, attempt)
	c.Mgmt.CPUSeconds += c.storeOpCPU(r.shard)
	c.API.Touch(r)
}

// openSession opens one tracing session on a node for a request. attempt
// is 0 for planned sessions and k for the k-th replacement in a slot's
// re-sampling chain.
func (c *Cluster) openSession(r *TraceRequest, n *Node, attempt int) error {
	if n.Down {
		// The lease may still look valid, but contacting the node fails.
		return fmt.Errorf("cluster: node %s unreachable", n.Name)
	}
	key := sessionKey(r, n, attempt)
	if c.Cfg.Lite {
		// A virtual session: the same bookkeeping, with a completion
		// timer in place of a traced workload. Its length is roughly the
		// request's sampling period, plus a per-session spread keyed by
		// the session ID so fleet completions don't all land on one tick
		// and runs stay deterministic.
		base := r.period
		if base <= 0 {
			base = 20 * simtime.Millisecond
		}
		dur := base + simtime.Duration(hashName(key[len(sessionPrefix):])%uint64(base))
		_, sl := c.takeSlot(r, n, key, attempt)
		c.Eng.AfterDetached(dur, sl.fire)
		return nil
	}
	cfg := core.DefaultConfig()
	cfg.Period = r.period
	cfg.Scale = trace.SpaceScale
	cfg.SessionID = key[len(sessionPrefix):]
	cfg.Node = n.Name
	cfg.Seed = c.Cfg.Seed ^ hashName(cfg.SessionID)
	sess, err := n.Ctrl.Trace(n.Apps[r.Spec.App], cfg)
	if err != nil {
		return err
	}
	seq := c.openSeq
	c.openSeq++
	i, sl := c.takeSlot(r, n, key, attempt)
	sl.sess, sl.endAt, sl.openSeq = sess, n.Machine.Eng.Now()+cfg.Period, seq
	sess.OnDone(func(*core.Session) {
		if c.advancing {
			// Concurrent node advance: park the completion for the
			// barrier's replay instead of touching control state from a
			// node goroutine.
			n.doneBuf = append(n.doneBuf, doneItem{at: n.Machine.Eng.Now(), seq: seq, slot: i})
			return
		}
		c.endSlot(i)
	})
	return nil
}

// takeSlot records a session of r on n in a free table slot.
func (c *Cluster) takeSlot(r *TraceRequest, n *Node, key string, attempt int) (int32, *sessionSlot) {
	r.usedNodes.Add(n.idx)
	i := c.slots.alloc(c)
	sl := c.slots.at(i)
	*sl = sessionSlot{req: r, node: n, key: key, attempt: int32(attempt), fire: sl.fire}
	return i, sl
}

// endSlot closes slot i, unless a crash already did, and frees it. It is
// a Lite session's timer and a machine session's window close.
func (c *Cluster) endSlot(i int32) {
	c.closeSlot(c.slots.at(i))
	c.slots.release(i)
}

// replacementCandidates lists the request's app repetitions with their
// current health, for the re-sampler.
func (c *Cluster) replacementCandidates(r *TraceRequest, now simtime.Time) []coverage.Repetition {
	var reps []coverage.Repetition
	placed := c.apps[r.Spec.App]
	for _, n := range c.Nodes {
		if !placed.has(n.idx) {
			continue
		}
		reps = append(reps, coverage.Repetition{Node: n.Name, Index: n.idx, Down: !c.nodeHealthy(n, now)})
	}
	return reps
}

// giveUpSlot abandons one lost session slot: the request will complete
// with partial coverage (or fail if nothing landed at all).
func (c *Cluster) giveUpSlot(r *TraceRequest) {
	r.Lost++
	c.sessionDone(r)
}

// Cancel aborts a live request: every open node session is closed
// immediately, whatever was captured so far is kept, and the request
// moves to the terminal Cancelled phase.
func (c *Cluster) Cancel(r *TraceRequest) {
	if r.Phase.Terminal() {
		return
	}
	r.abandoned = true
	for _, s := range c.openSessions(r) {
		s.Cancel() // fires OnDone, which queues the partial capture
	}
	// Ship the queued captures now, so those whose first PUT succeeds
	// have landed when the request turns Cancelled; the rest retry.
	if slices.ContainsFunc(c.pendingUpload, func(it uploadItem) bool { return it.req == r }) {
		c.flushUploads()
	}
	c.terminate(r, PhaseCancelled, "cancelled by operator")
}

// openSessions returns r's open machine sessions in open order. They are
// collected before any is cancelled, because a cancel's window close
// frees its slot. A Lite cluster has no machine sessions to scan for.
func (c *Cluster) openSessions(r *TraceRequest) []*core.Session {
	if c.Cfg.Lite {
		return nil
	}
	var open []*sessionSlot
	for i := int32(0); i < c.slots.n; i++ {
		if sl := c.slots.at(i); sl.req == r && sl.sess != nil && !sl.closed {
			open = append(open, sl)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].openSeq < open[j].openSeq })
	sessions := make([]*core.Session, len(open))
	for i, sl := range open {
		sessions[i] = sl.sess
	}
	return sessions
}

// Delete removes a terminal request and its uploaded sessions from the
// stores. Live requests must be cancelled first.
func (c *Cluster) Delete(name string) error {
	r, ok := c.API.Get(name)
	if !ok {
		return fmt.Errorf("cluster: trace request %q not found", name)
	}
	if !r.Phase.Terminal() {
		return fmt.Errorf("cluster: trace request %q is %s; cancel it before deleting", name, r.Phase)
	}
	for _, key := range r.SessionKeys {
		c.OSS.Delete(key)
	}
	r.deleted = true
	return c.API.Delete(name)
}

// closeSlot resolves one session, unless it is already closed: consult
// the fault injector for the data's fate and queue what survives for the
// batched, retrying upload. A Lite session ships a synthetic blob, a
// machine session its capture, which the upload decodes into the
// structured store.
func (c *Cluster) closeSlot(sl *sessionSlot) {
	if sl.closed {
		return
	}
	sl.closed = true
	r := sl.req
	if r.Phase.Terminal() {
		// Deadline or cancellation already resolved the request; the
		// late capture is dropped.
		return
	}
	if sl.lost {
		// Node crash destroyed the data before upload.
		c.loseSlot(r, int(sl.attempt))
		return
	}
	var res *trace.Session
	if sl.sess != nil {
		var err error
		if res, err = sl.sess.Result(); err != nil {
			c.terminate(r, PhaseFailed, err.Error())
			return
		}
	}
	id := sl.key[len(sessionPrefix):]
	fate := c.Cfg.Faults.SessionFate(id)
	if fate == faults.FateLost {
		// The capture vanished between window close and upload.
		c.loseSlot(r, int(sl.attempt))
		return
	}
	it := uploadItem{req: r, node: sl.node, key: sl.key, attempt: int(sl.attempt)}
	if res == nil {
		// Corruption and truncation don't destroy a Lite capture: the
		// blob is synthetic either way.
		it.blob = []byte(id)
		c.queueUpload(it)
		return
	}
	switch fate {
	case faults.FateCorrupted:
		for i := range res.Cores {
			c.Cfg.Faults.CorruptBuffer(fmt.Sprintf("%s#%d", id, res.Cores[i].Core), res.Cores[i].Data)
		}
	case faults.FateTruncated:
		for i := range res.Cores {
			res.Cores[i].Data = c.Cfg.Faults.TruncateBuffer(
				fmt.Sprintf("%s#%d", id, res.Cores[i].Core), res.Cores[i].Data)
		}
	}
	// Marshal's blob is exact-size, so the object store, which keeps the
	// slice it is handed, pins no slack.
	it.blob, it.res = res.Marshal(), res
	c.queueUpload(it)
}

// uploadLanded runs the post-upload bookkeeping for one session whose
// blob is safely in the object store: ledger, structured decode, and
// slot completion.
func (c *Cluster) uploadLanded(it uploadItem) {
	r := it.req
	if r.SessionKeys == nil {
		// Sized once, when the first session lands.
		r.SessionKeys = make([]string, 0, r.Planned)
	}
	r.SessionKeys = append(r.SessionKeys, it.key)
	// Per-session management cost: upload bookkeeping plus the status
	// append, a store write that pays the shard scan.
	c.Mgmt.CPUSeconds += 100e-6 + c.storeOpCPU(r.shard)
	c.Uploads.Sessions++
	c.Uploads.WireBytes += int64(len(it.blob))
	if it.res == nil {
		// A Lite session: a synthetic blob with no trace to decode.
		c.sessionDone(r)
		return
	}
	c.Uploads.V1Bytes += int64(trace.V1Size(it.res))

	// Decode against the binary repository and persist structured rows.
	if prog, ok := c.Binaries[r.Spec.App]; ok {
		sid := it.key[len(sessionPrefix):]
		dec := decode.Decode(it.res, prog)
		rows := make([]Row, 0, len(dec.FuncEntries))
		for fn, count := range dec.FuncEntries {
			rows = append(rows, Row{
				App: r.Spec.App, Node: it.node.Name, Session: sid,
				Key: prog.Funcs[fn].Name, Value: float64(count),
			})
		}
		c.insertWithRetry(r, sid, rows, 0)
	}
	c.sessionDone(r)
}

// queueUpload adds a finished session to the current upload batch and
// ships the batch once it holds UploadBatch sessions. The first session
// of a batch arms a flush one queueTick out, so a partially filled batch
// never waits longer than that.
func (c *Cluster) queueUpload(it uploadItem) {
	c.pendingUpload = append(c.pendingUpload, it)
	if len(c.pendingUpload) >= c.Cfg.UploadBatch {
		c.flushUploads()
		return
	}
	if len(c.pendingUpload) == 1 {
		seq := c.batchSeq
		c.Eng.AfterDetached(queueTick, func(simtime.Time) {
			if c.batchSeq == seq { // the batch has not shipped yet
				c.flushUploads()
			}
		})
	}
}

// flushUploads ships the pending batch in one object-store PUT. A batch
// of one is keyed by its object key, so its fault rolls and attempt
// count are those of a plain single-blob PUT.
func (c *Cluster) flushUploads() {
	if len(c.pendingUpload) == 0 {
		return
	}
	items := c.pendingUpload
	c.pendingUpload = nil
	c.batchSeq++
	key := items[0].key
	if len(items) > 1 {
		key = "batch/" + strconv.FormatInt(c.batchSeq, 10)
	}
	c.putBatchWithRetry(key, items, 0)
	if len(c.pendingUpload) == 0 {
		// Reuse the batch's storage: a retrying batch holds its own copy.
		c.pendingUpload = items[:0]
	}
}

// putBatchWithRetry uploads a batch of session blobs as one atomic PUT
// with exponential backoff and jitter. The batch succeeds or retries as
// a unit; each live request's Message tracks the transient error while
// retrying and is cleared when the upload recovers. Sessions whose
// request reached a terminal phase while the batch waited are dropped
// at delivery, except a cancelled request's until Delete removes it:
// Cancel keeps what was captured, and closeSlot drops any capture that
// closes after it. When
// the batch exhausts its retries every remaining session of a live
// request re-samples exactly once, and a cancelled request's is lost.
func (c *Cluster) putBatchWithRetry(batchKey string, items []uploadItem, attempt int) {
	live := items[:0]
	for _, it := range items {
		if !it.req.Phase.Terminal() || it.req.Phase == PhaseCancelled && !it.req.deleted {
			live = append(live, it)
		}
	}
	if len(live) == 0 {
		return
	}
	// Constant capacities keep typical batches' slices off the heap.
	keys := make([]string, 0, 8)
	blobs := make([][]byte, 0, 8)
	for _, it := range live {
		keys = append(keys, it.key)
		blobs = append(blobs, it.blob)
	}
	err := c.OSS.PutBatch(batchKey, keys, blobs)
	if err == nil {
		c.Uploads.Batches++
		for _, it := range live {
			if attempt > 0 && !it.req.Phase.Terminal() {
				it.req.Message = ""
			}
			c.uploadLanded(it)
		}
		return
	}
	if attempt+1 >= retryMax {
		for _, it := range live {
			if it.req.Phase.Terminal() {
				c.giveUpSlot(it.req)
				continue
			}
			it.req.Message = fmt.Sprintf("upload %s failed after %d attempts: %v", it.key, attempt+1, err)
			c.loseSlot(it.req, it.attempt)
		}
		return
	}
	for _, it := range live {
		if !it.req.Phase.Terminal() {
			it.req.Message = fmt.Sprintf("%v; retrying", err)
		}
	}
	c.Mgmt.Retries++
	c.Mgmt.CPUSeconds += 50e-6
	retry := append([]uploadItem(nil), live...)
	c.Eng.AfterDetached(c.backoff(attempt), func(simtime.Time) {
		c.putBatchWithRetry(batchKey, retry, attempt+1)
	})
}

// insertWithRetry lands decoded rows with the same backoff scheme. A
// batch that exhausts its retries is dropped: raw data is already safe in
// the object store, so structured rows are recoverable offline.
func (c *Cluster) insertWithRetry(r *TraceRequest, batch string, rows []Row, attempt int) {
	err := c.ODPS.Insert(batch, rows...)
	if err == nil {
		if attempt > 0 && !r.Phase.Terminal() {
			r.Message = ""
		}
		return
	}
	if attempt+1 >= retryMax {
		return
	}
	if !r.Phase.Terminal() {
		r.Message = fmt.Sprintf("%v; retrying", err)
	}
	c.Mgmt.Retries++
	c.Mgmt.CPUSeconds += 50e-6
	c.Eng.AfterDetached(c.backoff(attempt), func(simtime.Time) {
		c.insertWithRetry(r, batch, rows, attempt+1)
	})
}

// Store-retry policy: uploads and inserts back off exponentially from
// retryBase with ±50% jitter, capped at retryMaxBackoff, and give up
// after retryMax attempts.
const (
	retryBase       = 10 * simtime.Millisecond
	retryMaxBackoff = simtime.Second
	retryMax        = 5
)

// backoff returns the jittered exponential delay for a retry attempt,
// clamped to retryMaxBackoff after jittering — the cap is a hard bound
// on the wait, not on the pre-jitter base (which +50% jitter could
// otherwise exceed by half).
func (c *Cluster) backoff(attempt int) simtime.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryMaxBackoff; i++ {
		d *= 2
	}
	d = min(d, retryMaxBackoff)
	return min(simtime.Duration(c.retryRNG.Jitter(float64(d), 0.5)), retryMaxBackoff)
}

// sessionDone resolves one session slot and completes the request when
// the last slot lands.
func (c *Cluster) sessionDone(r *TraceRequest) {
	r.pending--
	if r.pending > 0 || r.Phase != PhaseRunning || r.abandoned {
		return
	}
	switch {
	case len(r.SessionKeys) == 0:
		c.terminate(r, PhaseFailed, fmt.Sprintf("all %d sessions lost", r.Planned))
	case r.Lost > 0:
		c.terminate(r, PhaseDegraded, fmt.Sprintf(
			"%d/%d sessions lost; completed with partial coverage", r.Lost, r.Planned))
	default:
		c.terminate(r, PhaseCompleted, "")
	}
}

// ManagementCores reports average management CPU cores used since start
// (Figure 17's orchestration overhead).
func (c *Cluster) ManagementCores() float64 {
	elapsed := c.Eng.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return c.Mgmt.CPUSeconds / elapsed
}

// hashName derives a stable seed perturbation from a string.
func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
