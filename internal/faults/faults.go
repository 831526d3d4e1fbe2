// Package faults is the deterministic fault-injection subsystem used to
// harden and evaluate EXIST's cluster control plane. Real shared
// datacenters treat partial data loss and component failure as the normal
// case: object-store puts time out, nodes crash mid-window, controllers
// stall, and session buffers arrive corrupted or truncated. The injector
// models all of these as seeded, reproducible decisions so resilience
// experiments are exactly repeatable.
//
// Determinism contract: every decision is drawn from a splittable stream
// keyed by the injector seed plus a *stable identifier* (object key,
// session ID, node name, attempt counter) — never by call order. Two runs
// with the same seed and the same identifiers inject the identical fault
// schedule regardless of event interleaving, and an injector left nil (or
// a zero Config) injects nothing at all: fault injection is strictly
// opt-in.
package faults

import (
	"fmt"

	"exist/internal/simtime"
	"exist/internal/xrand"
)

// Config parameterizes an Injector. The zero value injects no faults.
type Config struct {
	// Seed drives all fault randomness (independent of workload seeds).
	Seed uint64

	// PutFailProb is the per-attempt probability that an object-store
	// Put fails with a transient error (upload timeout / 5xx class).
	PutFailProb float64
	// InsertFailProb is the per-attempt probability that a structured
	// store Insert fails transiently.
	InsertFailProb float64

	// SessionLossProb is the per-session probability that a completed
	// window's data is lost outright (node reset between capture and
	// upload) — the session must be re-sampled elsewhere or given up.
	SessionLossProb float64
	// CorruptProb is the per-session probability that the raw buffers
	// arrive bit-flipped.
	CorruptProb float64
	// CorruptBits is how many bit flips a corrupted session suffers per
	// core buffer (default 8).
	CorruptBits int
	// TruncateProb is the per-session probability that a core buffer's
	// tail is chopped (partial upload); up to truncateFracMax of the
	// buffer is lost.
	TruncateProb float64

	// StallProb is the per-run probability that a controller's pump
	// (its reconcile loop) stalls and does no work (management pod CPU
	// starvation under cluster pressure).
	StallProb float64

	// CrashMTBF, when nonzero, gives each node an exponentially
	// distributed mean time between crashes. A crashed node stops
	// heartbeating, loses every in-flight session, and restarts after
	// CrashDowntime.
	CrashMTBF simtime.Duration
	// CrashDowntime is how long a crashed node stays down (default 1 s).
	CrashDowntime simtime.Duration

	// CtrlCrashMTBF, when nonzero, gives each controller replica an
	// exponentially distributed mean time between crashes. A crashed
	// controller stops renewing its election lease and processing its
	// work queue until CtrlCrashDowntime passes; on restart it relists
	// from the store (its watch stream is stale).
	CtrlCrashMTBF simtime.Duration
	// CtrlCrashDowntime is how long a crashed controller stays down
	// (default 500 ms).
	CtrlCrashDowntime simtime.Duration

	// PartitionMTBF, when nonzero, gives each controller replica an
	// exponentially distributed mean time between network partitions
	// from the API/object stores. A partitioned controller is alive but
	// every store operation (list, CAS, lease renewal) fails until the
	// partition heals — the classic half-failure a replicated control
	// plane must survive.
	PartitionMTBF simtime.Duration
	// PartitionMeanDur is the mean (exponential) partition duration
	// (default 500 ms).
	PartitionMeanDur simtime.Duration

	// GrayNodeProb is the probability that a given node is a gray
	// failure: alive and doing work, but with heartbeats that arrive
	// late. The decision is keyed by node name, so the same nodes are
	// gray in every run with the same seed.
	GrayNodeProb float64
	// GrayDelayMean is the mean (exponential) extra delay a gray node's
	// heartbeat suffers (default 300 ms). Delays beyond the lease TTL
	// make a healthy node look dead — the control plane re-samples its
	// sessions even though the node never crashed.
	GrayDelayMean simtime.Duration

	// ClockSkewMax, when nonzero, gives each controller replica a fixed
	// clock skew drawn uniformly from [-ClockSkewMax, +ClockSkewMax],
	// keyed by controller name. Skewed clocks distort the lease expiries
	// a controller writes and reads, stressing the election protocol's
	// fencing (the store remains the single authority).
	ClockSkewMax simtime.Duration

	// ChurnMTBF, when nonzero, gives each node an exponentially
	// distributed mean time between graceful leaves (rolling
	// maintenance, autoscaler scale-down). Unlike a crash, a leave
	// cordons the node: it takes no new sessions but drains and uploads
	// the ones in flight, then rejoins after an exponential downtime and
	// becomes schedulable again — continuous join/leave churn.
	ChurnMTBF simtime.Duration
	// ChurnDownMean is the mean (exponential) time a churned node stays
	// out of the fleet before rejoining (default 2 s).
	ChurnDownMean simtime.Duration
}

// Stats counts injected faults, for experiment reporting.
type Stats struct {
	// PutFailures and InsertFailures count injected store errors.
	PutFailures    int64 `obs:"put_failures,count"`
	InsertFailures int64 `obs:"insert_failures,count"`
	// SessionsLost counts sessions whose data was destroyed.
	SessionsLost int64 `obs:"sessions_lost,count"`
	// SessionsCorrupted and SessionsTruncated count buffer mutations.
	SessionsCorrupted int64 `obs:"sessions_corrupted,count"`
	SessionsTruncated int64 `obs:"sessions_truncated,count"`
	// Stalls counts skipped controller pump runs.
	Stalls int64 `obs:"stalls,count"`
	// Crashes counts node crash events.
	Crashes int64 `obs:"crashes,count"`
	// CtrlCrashes counts controller-replica crash events.
	CtrlCrashes int64 `obs:"ctrl_crashes,count"`
	// Partitions counts controller-store partition events.
	Partitions int64 `obs:"partitions,count"`
	// GrayDelays counts heartbeats that were delayed by gray failure.
	GrayDelays int64 `obs:"gray_delays,count"`
	// Leaves and Joins count graceful node-churn events.
	Leaves int64 `obs:"leaves,count"`
	Joins  int64 `obs:"joins,count"`
}

// Fate is the injector's verdict on one completed session's data.
type Fate int

const (
	// FateHealthy: the session survives intact.
	FateHealthy Fate = iota
	// FateLost: the session's data is destroyed; the control plane must
	// re-sample or degrade.
	FateLost
	// FateCorrupted: the buffers arrive with flipped bits.
	FateCorrupted
	// FateTruncated: the buffers arrive with their tails chopped.
	FateTruncated
)

// String names a fate.
func (f Fate) String() string {
	switch f {
	case FateHealthy:
		return "healthy"
	case FateLost:
		return "lost"
	case FateCorrupted:
		return "corrupted"
	case FateTruncated:
		return "truncated"
	default:
		return "?"
	}
}

// Injector makes seeded fault decisions. A nil *Injector is valid and
// injects nothing, so callers never need to branch on enablement.
type Injector struct {
	cfg   Config
	stats Stats
	// scratch is the one Rand cycled through every decision stream via
	// in-place reseeding, so a fault draw allocates nothing. The returned
	// stream is only valid until the next draw, which matches how every
	// method uses it; it also means an Injector must not be shared across
	// concurrently running engines (each cluster owns its own).
	scratch *xrand.Rand
}

// New returns an injector for the config.
func New(cfg Config) *Injector {
	if cfg.CorruptBits <= 0 {
		cfg.CorruptBits = 8
	}
	if cfg.CrashDowntime <= 0 {
		cfg.CrashDowntime = 1 * simtime.Second
	}
	if cfg.CtrlCrashDowntime <= 0 {
		cfg.CtrlCrashDowntime = 500 * simtime.Millisecond
	}
	if cfg.PartitionMeanDur <= 0 {
		cfg.PartitionMeanDur = 500 * simtime.Millisecond
	}
	if cfg.GrayDelayMean <= 0 {
		cfg.GrayDelayMean = 300 * simtime.Millisecond
	}
	return &Injector{cfg: cfg}
}

// Config returns the effective configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Stats returns the injected-fault counters so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// begin starts the label hash for one decision kind. Folding the pieces
// ("faults/" + kind + "/" + id) into the hash one by one derives the same
// seed as Split over the concatenated label, without building the string.
func (in *Injector) begin(kind string) xrand.SplitHash {
	return xrand.BeginSplit(in.cfg.Seed).String("faults/").String(kind).String("/")
}

// reseed points the scratch stream at the decision seed accumulated in h.
func (in *Injector) reseed(h xrand.SplitHash) *xrand.Rand {
	if in.scratch == nil {
		in.scratch = xrand.New(0)
	}
	in.scratch.ReseedSplit(h)
	return in.scratch
}

// draw returns the per-decision stream for a stable identifier.
func (in *Injector) draw(kind, id string) *xrand.Rand {
	return in.reseed(in.begin(kind).String(id))
}

// drawN returns the per-decision stream for a "name#k" identifier, hashing
// the counter's decimal form directly.
func (in *Injector) drawN(kind, name string, k int64) *xrand.Rand {
	return in.reseed(in.begin(kind).String(name).String("#").Int(k))
}

// PutError decides whether one object-store Put attempt fails. The
// decision is keyed by key and attempt number, so a retried Put sees an
// independent (but reproducible) draw each attempt.
func (in *Injector) PutError(key string, attempt int) error {
	if in == nil || in.cfg.PutFailProb <= 0 {
		return nil
	}
	if in.drawN("put", key, int64(attempt)).Bool(in.cfg.PutFailProb) {
		in.stats.PutFailures++
		return fmt.Errorf("faults: transient object-store error on %q (attempt %d)", key, attempt)
	}
	return nil
}

// InsertError decides whether one structured-store Insert attempt fails.
func (in *Injector) InsertError(batch string, attempt int) error {
	if in == nil || in.cfg.InsertFailProb <= 0 {
		return nil
	}
	if in.drawN("insert", batch, int64(attempt)).Bool(in.cfg.InsertFailProb) {
		in.stats.InsertFailures++
		return fmt.Errorf("faults: transient structured-store error on %q (attempt %d)", batch, attempt)
	}
	return nil
}

// SessionFate decides what happens to one completed session's data,
// keyed by session ID. At most one fate applies per session; loss
// dominates corruption dominates truncation.
//
// With all three probabilities at or below zero every draw would be
// false, so no stream is derived. Each decision reseeds the scratch
// stream from its own label hash, so the skipped draw shifts no other
// decision.
func (in *Injector) SessionFate(sessionID string) Fate {
	if in == nil || (in.cfg.SessionLossProb <= 0 && in.cfg.CorruptProb <= 0 && in.cfg.TruncateProb <= 0) {
		return FateHealthy
	}
	rng := in.draw("session", sessionID)
	// Independent draws in a fixed order keep each probability marginal.
	lost := rng.Bool(in.cfg.SessionLossProb)
	corrupt := rng.Bool(in.cfg.CorruptProb)
	truncate := rng.Bool(in.cfg.TruncateProb)
	switch {
	case lost:
		in.stats.SessionsLost++
		return FateLost
	case corrupt:
		in.stats.SessionsCorrupted++
		return FateCorrupted
	case truncate:
		in.stats.SessionsTruncated++
		return FateTruncated
	default:
		return FateHealthy
	}
}

// StallReconcile decides whether the n-th controller pump run stalls.
func (in *Injector) StallReconcile(n int64) bool {
	if in == nil || in.cfg.StallProb <= 0 {
		return false
	}
	if in.reseed(in.begin("stall").Int(n)).Bool(in.cfg.StallProb) {
		in.stats.Stalls++
		return true
	}
	return false
}

// NextCrash returns the delay until a node's k-th crash, drawn from the
// configured MTBF, and ok=false when crash injection is disabled.
func (in *Injector) NextCrash(node string, k int) (simtime.Duration, bool) {
	if in == nil || in.cfg.CrashMTBF <= 0 {
		return 0, false
	}
	d := in.drawN("crash", node, int64(k)).Exp(float64(in.cfg.CrashMTBF))
	if d < float64(simtime.Millisecond) {
		d = float64(simtime.Millisecond)
	}
	return simtime.Duration(d), true
}

// CountCrash records one node crash event.
func (in *Injector) CountCrash() {
	if in != nil {
		in.stats.Crashes++
	}
}

// NextChurn returns the delay until a node's k-th graceful leave and
// how long it stays out before rejoining, and ok=false when churn
// injection is disabled. Both draws are keyed by (node, k).
func (in *Injector) NextChurn(node string, k int) (delay, down simtime.Duration, ok bool) {
	if in == nil || in.cfg.ChurnMTBF <= 0 {
		return 0, 0, false
	}
	rng := in.drawN("churn", node, int64(k))
	d := rng.Exp(float64(in.cfg.ChurnMTBF))
	if d < float64(simtime.Millisecond) {
		d = float64(simtime.Millisecond)
	}
	mean := in.cfg.ChurnDownMean
	if mean <= 0 {
		mean = 2 * simtime.Second
	}
	dn := rng.Exp(float64(mean))
	if dn < float64(simtime.Millisecond) {
		dn = float64(simtime.Millisecond)
	}
	return simtime.Duration(d), simtime.Duration(dn), true
}

// CountLeave records one graceful node-leave event.
func (in *Injector) CountLeave() {
	if in != nil {
		in.stats.Leaves++
	}
}

// CountJoin records one node-rejoin event.
func (in *Injector) CountJoin() {
	if in != nil {
		in.stats.Joins++
	}
}

// NextCtrlCrash returns the delay until a controller replica's k-th
// crash, drawn from the configured MTBF, and ok=false when controller
// crash injection is disabled.
func (in *Injector) NextCtrlCrash(ctrl string, k int) (simtime.Duration, bool) {
	if in == nil || in.cfg.CtrlCrashMTBF <= 0 {
		return 0, false
	}
	d := in.drawN("ctrlcrash", ctrl, int64(k)).Exp(float64(in.cfg.CtrlCrashMTBF))
	if d < float64(simtime.Millisecond) {
		d = float64(simtime.Millisecond)
	}
	return simtime.Duration(d), true
}

// CountCtrlCrash records one controller-replica crash event.
func (in *Injector) CountCtrlCrash() {
	if in != nil {
		in.stats.CtrlCrashes++
	}
}

// NextPartition returns the delay until a controller replica's k-th
// store partition and how long it lasts, and ok=false when partition
// injection is disabled. Both draws are keyed by (ctrl, k).
func (in *Injector) NextPartition(ctrl string, k int) (delay, dur simtime.Duration, ok bool) {
	if in == nil || in.cfg.PartitionMTBF <= 0 {
		return 0, 0, false
	}
	rng := in.drawN("partition", ctrl, int64(k))
	d := rng.Exp(float64(in.cfg.PartitionMTBF))
	if d < float64(simtime.Millisecond) {
		d = float64(simtime.Millisecond)
	}
	l := rng.Exp(float64(in.cfg.PartitionMeanDur))
	if l < float64(simtime.Millisecond) {
		l = float64(simtime.Millisecond)
	}
	return simtime.Duration(d), simtime.Duration(l), true
}

// CountPartition records one controller-store partition event.
func (in *Injector) CountPartition() {
	if in != nil {
		in.stats.Partitions++
	}
}

// GrayNode reports whether a node is a gray failure (slow but alive),
// keyed by node name so the gray set is stable across a run.
func (in *Injector) GrayNode(node string) bool {
	if in == nil || in.cfg.GrayNodeProb <= 0 {
		return false
	}
	return in.draw("gray", node).Bool(in.cfg.GrayNodeProb)
}

// GrayBeats returns the label hash of a gray node's heartbeat delays,
// "faults/graydelay/<node>#" folded once, for GrayBeatDelay. A caller
// that already knows the node is gray keeps it instead of re-drawing
// GrayNode and re-hashing the name on every beat.
func (in *Injector) GrayBeats(node string) xrand.SplitHash {
	return in.begin("graydelay").String(node).String("#")
}

// GrayBeatDelay returns the extra delay the seq-th heartbeat of a gray
// node suffers, an exponential draw keyed by (node, seq), with beats =
// GrayBeats(node): folding the beat number into the stored hash equals
// hashing the concatenated label.
func (in *Injector) GrayBeatDelay(beats xrand.SplitHash, seq int64) simtime.Duration {
	d := in.reseed(beats.Int(seq)).Exp(float64(in.cfg.GrayDelayMean))
	if d <= 0 {
		return 0
	}
	in.stats.GrayDelays++
	return simtime.Duration(d)
}

// ClockSkew returns the controller's fixed clock skew, drawn uniformly
// from [-ClockSkewMax, +ClockSkewMax] and keyed by controller name. It
// is zero when skew injection is disabled.
func (in *Injector) ClockSkew(ctrl string) simtime.Duration {
	if in == nil || in.cfg.ClockSkewMax <= 0 {
		return 0
	}
	max := float64(in.cfg.ClockSkewMax)
	return simtime.Duration(in.draw("skew", ctrl).Float64()*2*max - max)
}

// CorruptBuffer flips the configured number of bits in data in place,
// keyed by id. It returns the number of bits flipped.
func (in *Injector) CorruptBuffer(id string, data []byte) int {
	if in == nil || len(data) == 0 {
		return 0
	}
	return FlipBits(data, in.cfg.CorruptBits, in.cfg.Seed^hash(id))
}

// truncateFracMax bounds the fraction of a buffer TruncateBuffer chops:
// up to half the tail is lost.
const truncateFracMax = 0.5

// TruncateBuffer chops a seeded fraction of data's tail, keyed by id,
// returning the shortened slice.
func (in *Injector) TruncateBuffer(id string, data []byte) []byte {
	if in == nil || len(data) == 0 {
		return data
	}
	frac := in.draw("truncfrac", id).Float64() * truncateFracMax
	return Truncate(data, frac)
}

// FlipBits flips n uniformly chosen bits of data in place using the given
// seed, returning the number of flips. It is exported for corruption
// table tests.
func FlipBits(data []byte, n int, seed uint64) int {
	if len(data) == 0 || n <= 0 {
		return 0
	}
	rng := xrand.Split(seed, "faults/flip")
	for i := 0; i < n; i++ {
		bit := rng.Int64N(int64(len(data)) * 8)
		data[bit/8] ^= 1 << uint(bit%8)
	}
	return n
}

// Truncate returns data with the trailing frac (clamped to [0,1)) of its
// bytes removed.
func Truncate(data []byte, frac float64) []byte {
	if frac <= 0 {
		return data
	}
	if frac >= 1 {
		frac = 0.999
	}
	keep := len(data) - int(float64(len(data))*frac)
	if keep < 0 {
		keep = 0
	}
	return data[:keep]
}

// hash derives a stable 64-bit value from a string (FNV-1a).
func hash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
