package cluster

import (
	"exist/internal/metrics"
	"exist/internal/simtime"
)

// Lease is one shard's leader-election record kept in the object store.
// The fencing Token increments on every change of holder, so a deposed
// leader that wakes up with a stale token is rejected by the store even
// if its local clock still believes the lease is valid.
type Lease struct {
	Holder string
	Token  int64
	Until  simtime.Time
}

// leaseShard is the store-side election state for one shard: its lease,
// availability ledger, and election counters.
type leaseShard struct {
	lease     Lease
	up        metrics.Uptime
	failovers int
	elections int
}

// LeaseStore is the store-side half of leader election: one lease record
// per shard with compare-and-swap acquisition (a range lease — holding
// shard s means owning every request whose name hashes to s). The
// store's clock is the authority — controllers may observe skewed time,
// but expiry and fencing are judged here. It also keeps the availability
// ledger: per shard, the union of time during which some controller held
// a valid lease.
type LeaseStore struct {
	shards []leaseShard
	// presence records each replica's last liveness refresh; holders of
	// non-home shards consult it to hand shards back when the home
	// replica returns (only engaged with more than one shard).
	presence map[string]simtime.Time
}

// NewLeaseStore returns a lease store with n shard leases (n < 1 is
// treated as 1).
func NewLeaseStore(n int) *LeaseStore {
	if n < 1 {
		n = 1
	}
	return &LeaseStore{shards: make([]leaseShard, n)}
}

// TryAcquireShard attempts to take or renew shard si's lease for ctrl at
// observed time now with the given ttl. It fails while a different
// holder's lease is still valid. The fencing token increments on every
// fresh acquisition — a change of holder, or a re-acquire after the
// lease lapsed — so callbacks queued under the old incarnation are
// fenced off even when the same replica wins again. A change of holder
// after the shard's first election is recorded as a failover (a shard
// rebalance). `now` is the caller's observed time: a clock-skewed
// controller both judges the incumbent's expiry and stamps its own with
// a skewed clock, which is exactly how skew breaks real lease schemes.
func (ls *LeaseStore) TryAcquireShard(si int, ctrl string, now simtime.Time, ttl simtime.Duration) (int64, bool) {
	sh := &ls.shards[si]
	held := sh.lease.Holder != "" && sh.lease.Until > now
	if held && sh.lease.Holder != ctrl {
		return 0, false
	}
	if !held || sh.lease.Holder != ctrl {
		sh.lease.Token++
		sh.elections++
		if sh.lease.Holder != "" && sh.lease.Holder != ctrl {
			sh.failovers++
		}
		sh.lease.Holder = ctrl
	}
	sh.lease.Until = now + ttl
	sh.up.Extend(now.Seconds(), sh.lease.Until.Seconds())
	return sh.lease.Token, true
}

// Release lapses shard si's lease if ctrl still holds it with the given
// token: a graceful handback. The holder record is kept — the next
// acquisition (by the returning home replica) still increments the
// fencing token and counts as a failover, i.e. a rebalance.
func (ls *LeaseStore) Release(si int, ctrl string, token int64, now simtime.Time) bool {
	sh := &ls.shards[si]
	if sh.lease.Holder != ctrl || sh.lease.Token != token || sh.lease.Until <= now {
		return false
	}
	sh.lease.Until = now
	return true
}

// Expired reports whether shard si's lease is lapsed (or was never
// taken) at observed time now.
func (ls *LeaseStore) Expired(si int, now simtime.Time) bool {
	sh := &ls.shards[si]
	return sh.lease.Holder == "" || sh.lease.Until <= now
}

// ValidForShard reports whether ctrl still holds shard si's lease with
// the given fencing token at store time now. Store mutations from a
// controller that fails this check are fenced off.
func (ls *LeaseStore) ValidForShard(si int, ctrl string, token int64, now simtime.Time) bool {
	sh := &ls.shards[si]
	return sh.lease.Holder == ctrl && sh.lease.Token == token && sh.lease.Until > now
}

// HolderShard returns shard si's current (possibly expired) holder and
// token.
func (ls *LeaseStore) HolderShard(si int) (string, int64) {
	return ls.shards[si].lease.Holder, ls.shards[si].lease.Token
}

// Heartbeat refreshes ctrl's liveness record until now+ttl.
func (ls *LeaseStore) Heartbeat(ctrl string, now simtime.Time, ttl simtime.Duration) {
	if ls.presence == nil {
		ls.presence = make(map[string]simtime.Time)
	}
	ls.presence[ctrl] = now + ttl
}

// Alive reports whether ctrl's liveness record is fresh at time now.
func (ls *LeaseStore) Alive(ctrl string, now simtime.Time) bool {
	return ls.presence[ctrl] > now
}

// Availability returns the fraction of [0, end] seconds during which a
// valid leader lease existed, averaged across shards, plus the total
// number of per-shard leadership gaps.
func (ls *LeaseStore) Availability(end float64) (float64, int) {
	frac, gaps := 0.0, 0
	for i := range ls.shards {
		frac += ls.shards[i].up.Fraction(end)
		gaps += ls.shards[i].up.Gaps()
	}
	return frac / float64(len(ls.shards)), gaps
}

// Failovers returns how many times shard leadership changed hands after
// each shard's first election — with several shards, the number of
// shard rebalances.
func (ls *LeaseStore) Failovers() int {
	n := 0
	for i := range ls.shards {
		n += ls.shards[i].failovers
	}
	return n
}

// Elections returns the number of distinct shard-leader acquisitions.
func (ls *LeaseStore) Elections() int {
	n := 0
	for i := range ls.shards {
		n += ls.shards[i].elections
	}
	return n
}
