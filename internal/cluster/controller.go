package cluster

import (
	"errors"
	"fmt"

	"exist/internal/core"
	"exist/internal/coverage"
	"exist/internal/simtime"
)

// Controller is one replica of the control plane. The work is
// range-sharded: each API-server shard has its own store lease, and a
// replica acts only on the shards it holds. With one shard (the default)
// this degenerates to classic single-leader election — at most one
// replica acts at a time. Each replica runs a staggered election tick
// that renews the shards it holds, reclaims its home shards (shard %
// replicas == idx), and picks up any expired shard whose holder died;
// the winner relists the acquired shards, re-adopts their in-flight
// requests, and drives per-shard watch-fed work queues merged in global
// FIFO order. Everything a replica must remember across a failover lives
// on the TraceRequest objects themselves (phase, pending slots, recorded
// resample slots), so a fresh shard owner recovers the full work set
// from a relist and no session is lost or duplicated.
type Controller struct {
	// Name is the replica name (ctrl-<i>).
	Name string

	c    *Cluster
	idx  int
	skew simtime.Duration // injected clock skew, fixed per replica

	// owned, tokens, watches and queues are per shard; nOwned counts the
	// owned shards. A shard's fencing token identifies the replica's
	// current ownership incarnation of it.
	owned  []bool
	nOwned int
	tokens []int64

	watches []*WatchStream
	queues  []*workQueue

	// down marks an injected controller crash; partitionedUntil marks
	// the end of an injected controller-store partition.
	down             bool
	partitionedUntil simtime.Time
	crashes          int
	partitions       int

	// epoch invalidates callbacks queued before a crash: a restarted
	// replica must not execute work scheduled by its dead incarnation.
	epoch int

	pumpArmed bool

	// adopting tracks, per shard, the Running requests inherited at
	// acquisition; when a shard's set drains its re-adoption time is
	// recorded.
	adopting    []map[string]bool
	electedAt   []simtime.Time
	readoptOpen []bool
}

// Leader reports whether this replica currently believes it owns at
// least one shard. The store's lease records are the authority; a
// deposed replica may briefly believe until its next store contact
// fences it.
func (ct *Controller) Leader() bool { return ct.nOwned > 0 }

// OwnedShards returns the shards this replica currently believes it
// owns, ascending.
func (ct *Controller) OwnedShards() []int {
	var out []int
	for s, own := range ct.owned {
		if own {
			out = append(out, s)
		}
	}
	return out
}

// QueueDepth returns the replica's total queued work across its shard
// queues.
func (ct *Controller) QueueDepth() int {
	n := 0
	for _, q := range ct.queues {
		n += q.Len()
	}
	return n
}

// ActiveOwnersShard counts replicas that believe they own shard si and
// would pass its fencing check at now. Range-lease safety demands this
// never exceeds one per shard.
func (c *Cluster) ActiveOwnersShard(si int, now simtime.Time) int {
	n := 0
	for _, ct := range c.Controllers {
		if si < len(ct.owned) && ct.owned[si] && c.Leases.ValidForShard(si, ct.Name, ct.tokens[si], now) {
			n++
		}
	}
	return n
}

// ShardRebalances returns how many times shard ownership changed hands
// after each shard's first election (takeovers and handbacks).
func (c *Cluster) ShardRebalances() int {
	return c.Leases.Failovers()
}

// startControllers builds the replica set and arms their election
// ticks, staggered by a millisecond per replica so elections are
// deterministic and contested in a fixed order. Each replica opens one
// watch stream and one work queue per shard; non-owned streams simply
// buffer (and may go stale), which is fine — acquisition always resets
// and relists the shard.
func (c *Cluster) startControllers() {
	nShards := c.API.Shards()
	for i := 0; i < c.Cfg.Replicas; i++ {
		ct := &Controller{
			Name:        fmt.Sprintf("ctrl-%d", i),
			c:           c,
			idx:         i,
			owned:       make([]bool, nShards),
			tokens:      make([]int64, nShards),
			watches:     make([]*WatchStream, nShards),
			queues:      make([]*workQueue, nShards),
			adopting:    make([]map[string]bool, nShards),
			electedAt:   make([]simtime.Time, nShards),
			readoptOpen: make([]bool, nShards),
		}
		ct.skew = c.Cfg.Faults.ClockSkew(ct.Name)
		for s := 0; s < nShards; s++ {
			ct.watches[s] = c.API.WatchShard(s, ct.kick)
			ct.queues[s] = newWorkQueue(c, ct.kick)
		}
		c.Controllers = append(c.Controllers, ct)
		c.scheduleElect(ct, simtime.Duration(i+1)*simtime.Millisecond)
		if c.Cfg.Faults != nil {
			c.scheduleCtrlCrash(ct)
			c.scheduleCtrlPartition(ct)
		}
	}
}

// Leader election: a leader lease stays valid electionTTL without
// renewal, and each replica ticks every electionRetry (its first tick
// staggered one millisecond per replica).
const (
	electionTTL   = 400 * simtime.Millisecond
	electionRetry = 100 * simtime.Millisecond
)

// scheduleElect arms a replica's next election tick.
func (c *Cluster) scheduleElect(ct *Controller, d simtime.Duration) {
	c.Eng.AfterDetached(d, func(now simtime.Time) {
		ct.electTick(now)
		c.scheduleElect(ct, electionRetry)
	})
}

// scheduleCtrlCrash arms the replica's next injected crash. A crash
// wipes the replica's in-memory state (queues, watch positions, adoption
// sets) — recovery is a fresh relist, never a replay.
func (c *Cluster) scheduleCtrlCrash(ct *Controller) {
	d, ok := c.Cfg.Faults.NextCtrlCrash(ct.Name, ct.crashes)
	if !ok {
		return
	}
	c.Eng.AfterDetached(d, func(now simtime.Time) {
		ct.crashes++
		c.Cfg.Faults.CountCtrlCrash()
		ct.crash(c.Cfg.Faults.Config().CtrlCrashDowntime, func() {
			c.scheduleCtrlCrash(ct)
		})
	})
}

// crash takes the replica down for downFor, wiping its in-memory state,
// then restarts it and runs onUp (which may arm the next injected
// crash).
func (ct *Controller) crash(downFor simtime.Duration, onUp func()) {
	ct.down = true
	ct.epoch++
	ct.pumpArmed = false
	for s := range ct.owned {
		ct.owned[s] = false
		ct.queues[s].Reset()
		ct.watches[s].Reset()
		ct.adopting[s] = nil
		ct.readoptOpen[s] = false
	}
	ct.nOwned = 0
	ct.c.Eng.AfterDetached(downFor, func(simtime.Time) {
		ct.down = false
		if onUp != nil {
			onUp()
		}
	})
}

// scheduleCtrlPartition arms the replica's next injected controller-
// store partition. While partitioned the replica cannot reach the
// store: it can neither renew its leases (so ownership decays) nor
// sync, but it stays alive and keeps its memory.
func (c *Cluster) scheduleCtrlPartition(ct *Controller) {
	delay, dur, ok := c.Cfg.Faults.NextPartition(ct.Name, ct.partitions)
	if !ok {
		return
	}
	c.Eng.AfterDetached(delay, func(now simtime.Time) {
		ct.partitions++
		c.Cfg.Faults.CountPartition()
		ct.partitionedUntil = now + dur
		c.Eng.AfterDetached(dur, func(simtime.Time) {
			c.scheduleCtrlPartition(ct)
		})
	})
}

// storeReachable reports whether the replica can currently contact the
// API server and stores.
func (ct *Controller) storeReachable(now simtime.Time) bool {
	return ct.partitionedUntil <= now
}

// homeOf returns the replica index that prefers shard s (the static
// balanced assignment shards rebalance back towards).
func (c *Cluster) homeOf(s int) int { return s % c.Cfg.Replicas }

// disownShard drops the replica's claim on a shard. Queue and watch
// backlog is kept — the next acquisition resets and relists anyway, and
// a deposed incarnation's backlog is superseded by the new owner's.
func (ct *Controller) disownShard(s int) {
	if !ct.owned[s] {
		return
	}
	ct.owned[s] = false
	ct.nOwned--
}

// electTick is one round of range-lease maintenance. For each shard the
// replica renews what it holds, contends for its home shards, and picks
// up non-home shards whose lease lapsed (a dead or partitioned owner).
// When several shards have lapsed the tick stagger decides the pickup
// order deterministically. A holder of a non-home shard hands it back
// once the home replica's liveness record is fresh again, converging
// ownership to the balanced assignment. The replica judges incumbent
// leases and stamps its own with its (possibly skewed) local clock;
// fencing at the store uses true time, so a skewed replica can win a
// shard early but cannot mutate state the real owner still holds.
func (ct *Controller) electTick(now simtime.Time) {
	if ct.down || !ct.storeReachable(now) {
		// Crashed or partitioned: no store contact, ownership decays on
		// its own at the store.
		return
	}
	c := ct.c
	obs := now + ct.skew
	if obs < 0 {
		obs = 0
	}
	nShards := c.API.Shards()
	if nShards > 1 {
		c.Leases.Heartbeat(ct.Name, obs, electionTTL)
	}
	var newly []int
	for s := 0; s < nShards; s++ {
		if ct.owned[s] {
			token, ok := c.Leases.TryAcquireShard(s, ct.Name, obs, electionTTL)
			if !ok {
				// Another replica's lease is valid from where this one
				// stands: deposed on this shard.
				ct.disownShard(s)
				continue
			}
			if token != ct.tokens[s] {
				// Our lease lapsed unnoticed and we re-acquired: a new
				// ownership incarnation for this shard.
				ct.tokens[s] = token
				newly = append(newly, s)
				continue
			}
			// Plain renewal. Hand a non-home shard back once its home
			// replica is alive again.
			if nShards > 1 && c.homeOf(s) != ct.idx {
				home := fmt.Sprintf("ctrl-%d", c.homeOf(s))
				if c.Leases.Alive(home, obs) && c.Leases.Release(s, ct.Name, token, obs) {
					ct.disownShard(s)
				}
			}
			continue
		}
		// Not owned: contend for home shards always (exactly the classic
		// single-lease behavior when there is one shard), and for foreign
		// shards only once their lease has lapsed.
		if nShards > 1 && c.homeOf(s) != ct.idx && !c.Leases.Expired(s, obs) {
			continue
		}
		token, ok := c.Leases.TryAcquireShard(s, ct.Name, obs, electionTTL)
		if !ok {
			continue
		}
		ct.owned[s] = true
		ct.nOwned++
		ct.tokens[s] = token
		newly = append(newly, s)
	}
	if len(newly) > 0 {
		ct.becomeLeader(newly, now)
	}
	// The renewal tick also turns an owner's work loop, so the pump runs
	// at least once per electionRetry even with no watch traffic: an idle
	// owner still rechecks its fencing tokens at the store.
	if ct.nOwned > 0 {
		ct.kick()
	}
}

// becomeLeader starts an ownership incarnation over the newly acquired
// shards: drop their stale watch backlog, relist them to rebuild the
// work set (one relist of just those shards, merged in creation order,
// so the enqueue order — and the queue sequence numbers — match what a
// single queue would have seen), and mark their Running requests as
// adopted so the failover's re-adoption time can be measured when each
// shard's set drains.
func (ct *Controller) becomeLeader(newly []int, now simtime.Time) {
	c := ct.c
	c.Mgmt.Elections++
	for _, s := range newly {
		c.Mgmt.CPUSeconds += relistCPU(c.API.LiveInShard(s))
		ct.watches[s].Reset()
		ct.queues[s].Reset()
		ct.adopting[s] = make(map[string]bool)
		ct.electedAt[s] = now
	}
	for _, r := range c.API.listShards(newly) {
		if r.Phase.Terminal() {
			continue
		}
		ct.queues[r.shard].Add(r.Name)
		if r.Phase == PhaseRunning {
			ct.adopting[r.shard][r.Name] = true
		}
	}
	for _, s := range newly {
		ct.readoptOpen[s] = len(ct.adopting[s]) > 0
	}
	ct.kick()
}

// Work-loop timing: a watch event or queue add reaches the pump
// queueLatency later, one pump run syncs at most queueBurst items, and
// the pump re-arms every queueTick while backlog remains (queueTick also
// bounds how long a partially filled upload batch waits).
const (
	queueLatency = 2 * simtime.Millisecond
	queueTick    = 20 * simtime.Millisecond
	queueBurst   = 64
)

// kick schedules a pump after the queue latency, if one is not already
// armed. It is the notify hook for the watch streams and work queues.
func (ct *Controller) kick() {
	if ct.pumpArmed || ct.down {
		return
	}
	ct.pumpArmed = true
	ct.rearmPump(queueLatency)
}

// rearmPump schedules a pump run after d, bound to the current epoch so
// a crash invalidates it.
func (ct *Controller) rearmPump(d simtime.Duration) {
	epoch := ct.epoch
	ct.c.Eng.AfterDetached(d, func(now simtime.Time) {
		if ct.epoch != epoch {
			return
		}
		ct.pumpArmed = false
		ct.pump(now)
	})
}

// backlog reports whether any owned shard has queued work or buffered
// watch events.
func (ct *Controller) backlog() bool {
	for s, own := range ct.owned {
		if own && (ct.queues[s].Len() > 0 || ct.watches[s].Len() > 0) {
			return true
		}
	}
	return false
}

// pump is an owner's work loop: drain the owned shards' watch streams
// into their queues (relisting a shard whose stream went stale), sync up
// to queueBurst items popped in global FIFO order across the owned
// queues, and re-arm while backlog remains. A pump on a replica owning
// nothing is a no-op; a deposed owner is fenced per shard by the store
// before it can act on that shard.
func (ct *Controller) pump(now simtime.Time) {
	c := ct.c
	if ct.down || ct.nOwned == 0 {
		return
	}
	c.Mgmt.Reconciles++
	if c.Cfg.Faults.StallReconcile(c.Mgmt.Reconciles) {
		// Injected controller stall: the run burns its base cost but does
		// no work, and the backlog waits a tick.
		c.Mgmt.Stalls++
		c.Mgmt.CPUSeconds += syncBaseCPU
		if ct.backlog() {
			ct.pumpArmed = true
			ct.rearmPump(queueTick)
		}
		return
	}
	if !ct.storeReachable(now) {
		// Partitioned mid-ownership: keep the backlog and retry after a
		// tick; if the partition outlives the leases other replicas take
		// the shards over and this backlog is superseded by their relists.
		ct.pumpArmed = true
		ct.rearmPump(queueTick)
		return
	}
	for s, own := range ct.owned {
		if own && !c.Leases.ValidForShard(s, ct.Name, ct.tokens[s], now) {
			// The store fences the stale token: this incarnation was
			// deposed on the shard while it still believed it owned it
			// (partition, skew, late renewal).
			c.Mgmt.FencedOps++
			ct.disownShard(s)
		}
	}
	if ct.nOwned == 0 {
		return
	}
	for s, own := range ct.owned {
		if own && ct.watches[s].Stale() {
			// The shard's stream dropped events; resynchronize it with a
			// shard-scoped relist.
			ct.watches[s].Reset()
			c.Mgmt.Relists++
			c.Mgmt.CPUSeconds += relistCPU(c.API.LiveInShard(s))
			for _, r := range c.API.ListShard(s) {
				if !r.Phase.Terminal() {
					ct.queues[s].Add(r.Name)
				}
			}
		}
	}
	// Merge the owned streams by emission sequence so the queue sees
	// events in the exact server-side order.
	for {
		best := -1
		var bestEv WatchEvent
		for s, own := range ct.owned {
			if !own {
				continue
			}
			ev, ok := ct.watches[s].peek()
			if ok && (best < 0 || ev.Seq < bestEv.Seq) {
				best, bestEv = s, ev
			}
		}
		if best < 0 {
			break
		}
		ct.watches[best].Next()
		if bestEv.Type != EventDeleted {
			ct.queues[best].Add(bestEv.Name)
		}
	}
	// Pop the globally oldest head across the owned queues: the merged
	// drain is the FIFO a single queue would have produced.
	for i := 0; i < queueBurst; i++ {
		best := -1
		var bestSeq int64
		for s, own := range ct.owned {
			if !own {
				continue
			}
			if seq, ok := ct.queues[s].headSeq(); ok && (best < 0 || seq < bestSeq) {
				best, bestSeq = s, seq
			}
		}
		if best < 0 {
			break
		}
		name, _ := ct.queues[best].Pop()
		ct.sync(name, now)
	}
	if ct.backlog() {
		ct.pumpArmed = true
		ct.rearmPump(queueTick)
	}
}

// queueFor returns the shard queue a request name belongs to.
func (ct *Controller) queueFor(name string) *workQueue {
	return ct.queues[ct.c.API.ShardOf(name)]
}

// sync reconciles one request by name: admission-check and start
// Pending requests (idempotently, via CAS on the resource version),
// re-sample recorded lost slots of Running ones, and retire terminal
// ones from the rate limiter and the adoption set.
func (ct *Controller) sync(name string, now simtime.Time) {
	c := ct.c
	c.Mgmt.Syncs++
	c.Mgmt.CPUSeconds += syncBaseCPU + c.storeOpCPU(c.API.ShardOf(name))
	r, ok := c.API.Get(name)
	if !ok {
		ct.queueFor(name).Forget(name)
		ct.adopted(name, now)
		return
	}
	if r.Phase.Terminal() {
		ct.queueFor(name).Forget(name)
		ct.adopted(name, now)
		return
	}
	c.armDeadline(r, now)
	switch r.Phase {
	case PhasePending:
		ct.syncPending(r, now)
	case PhaseRunning:
		ct.syncRunning(r, now)
		ct.adopted(name, now)
	}
}

// adopted retires one name from its shard's adoption set; when the set
// drains the shard acquisition's re-adoption time is recorded.
func (ct *Controller) adopted(name string, now simtime.Time) {
	s := ct.c.API.ShardOf(name)
	if ct.adopting[s] == nil || !ct.adopting[s][name] {
		return
	}
	delete(ct.adopting[s], name)
	if len(ct.adopting[s]) == 0 && ct.readoptOpen[s] {
		ct.readoptOpen[s] = false
		ct.c.Readopts = append(ct.c.Readopts, (now - ct.electedAt[s]).Millis())
	}
}

// syncPending admits and starts one Pending request. The Pending →
// Running transition is a compare-and-swap on the resource version the
// sync read, so two replicas that both believe they own the shard can
// never both open sessions for the same request — the loser's CAS
// conflicts and it requeues to observe the winner's work.
func (ct *Controller) syncPending(r *TraceRequest, now simtime.Time) {
	c := ct.c
	rv := r.ResourceVersion
	period, selected, retry, err := c.plan(r, now)
	if err != nil {
		c.terminate(r, PhaseFailed, err.Error())
		return
	}
	if retry {
		// No healthy repetition right now; back off and retry.
		ct.queues[r.shard].AddRateLimited(r.Name)
		return
	}
	if err := c.API.CASPhase(r, rv, PhaseRunning, ""); err != nil {
		c.Mgmt.Conflicts++
		ct.queues[r.shard].AddRateLimited(r.Name)
		return
	}
	if err := c.start(r, period, selected); err != nil {
		c.terminate(r, PhaseFailed, err.Error())
		return
	}
	ct.queues[r.shard].Forget(r.Name)
}

// resampleMax bounds replacement attempts per lost session slot.
const resampleMax = 3

// syncRunning re-samples the request's recorded lost slots. Slots are
// persisted on the object (not in controller memory), so a failover's
// relist recovers them; a slot with no healthy candidate stays recorded
// with its attempt burnt and the item requeues with backoff. A slot
// whose replacement node's tracer is held by another request's window
// is not a loss: it keeps its attempt, and when every remaining slot is
// waiting on a busy tracer the item requeues for the earliest window
// close on those nodes instead.
func (ct *Controller) syncRunning(r *TraceRequest, now simtime.Time) {
	c := ct.c
	if len(r.resampleSlots) == 0 || r.cancelling {
		ct.queues[r.shard].Forget(r.Name)
		return
	}
	slots := r.resampleSlots
	r.resampleSlots = nil
	var wake simtime.Time // earliest busy-tracer release; 0 while none
	burnt := false
	for _, attempt := range slots {
		if r.Phase.Terminal() {
			break
		}
		if attempt >= resampleMax {
			c.giveUpSlot(r)
			continue
		}
		reps := c.replacementCandidates(r, now)
		idx := coverage.SelectReplacements(reps, r.usedNodes, 1, c.resampleRNG)
		if len(idx) == 0 {
			r.resampleSlots = append(r.resampleSlots, attempt+1)
			burnt = true
			continue
		}
		n := c.Nodes[reps[idx[0]].Index]
		if err := c.openSession(r, n, attempt+1); err != nil {
			if errors.Is(err, core.ErrTracerBusy) {
				if at, ok := c.tracerFreeAt(n); ok {
					r.resampleSlots = append(r.resampleSlots, attempt)
					if wake == 0 || at < wake {
						wake = at
					}
					continue
				}
			}
			r.resampleSlots = append(r.resampleSlots, attempt+1)
			burnt = true
			continue
		}
		r.Resampled++
		c.Mgmt.Resamples++
		c.Mgmt.CPUSeconds += 50e-6
	}
	switch {
	case len(r.resampleSlots) == 0:
		ct.queues[r.shard].Forget(r.Name)
	case burnt:
		ct.queues[r.shard].AddRateLimited(r.Name)
	default:
		ct.queues[r.shard].AddAfter(r.Name, wake-now)
	}
}

// tracerFreeAt returns the earliest window close among the open machine
// sessions on node n: the first moment a tracer busy with another
// request's window can be free again. A nil n takes every node, which
// bounds the barrier (see runParallel).
func (c *Cluster) tracerFreeAt(n *Node) (simtime.Time, bool) {
	var at simtime.Time
	found := false
	for i := int32(0); i < c.slots.n; i++ {
		sl := c.slots.at(i)
		if sl.node != nil && !sl.closed && (n == nil || sl.node == n) && (!found || sl.endAt < at) {
			at, found = sl.endAt, true
		}
	}
	return at, found
}
