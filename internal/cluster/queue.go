package cluster

import "exist/internal/simtime"

// workQueue is a controller's work queue in the Kubernetes workqueue
// idiom: a FIFO of object names with add-time deduplication, delayed
// re-adds, and a per-item exponential-backoff rate limiter for items
// that keep failing (CAS conflicts, unreachable stores, nodes with no
// healthy repetitions). All delays run on the cluster's virtual clock,
// so queue behavior is deterministic.
type workQueue struct {
	c      *Cluster
	items  []queueItem
	queued map[string]bool
	fails  map[string]int
	// notify, when set, fires each time the queue goes from empty to
	// non-empty, so the owning controller can schedule a drain.
	notify func()
}

// queueItem is one queued name stamped with the cluster-global enqueue
// sequence. A controller owning several shard queues pops the globally
// oldest head across them, so the merged drain order is the exact FIFO a
// single queue would have produced (the Shards=1 ≡ Shards=k argument of
// DESIGN.md §15).
type queueItem struct {
	name string
	seq  int64
}

// The rate limiter's requeue delay starts at queueBaseDelay and doubles
// per consecutive failure up to queueMaxDelay.
const (
	queueBaseDelay = 5 * simtime.Millisecond
	queueMaxDelay  = simtime.Second
)

// newWorkQueue builds an empty queue.
func newWorkQueue(c *Cluster, notify func()) *workQueue {
	return &workQueue{
		c:      c,
		queued: make(map[string]bool),
		fails:  make(map[string]int),
		notify: notify,
	}
}

// Add enqueues the name unless it is already queued.
func (q *workQueue) Add(name string) {
	if q.queued[name] {
		return
	}
	q.queued[name] = true
	q.c.queueSeq++
	q.items = append(q.items, queueItem{name: name, seq: q.c.queueSeq})
	if len(q.items) == 1 && q.notify != nil {
		q.notify()
	}
}

// AddAfter enqueues the name after a virtual delay.
func (q *workQueue) AddAfter(name string, d simtime.Duration) {
	if d <= 0 {
		q.Add(name)
		return
	}
	q.c.Eng.AfterDetached(d, func(simtime.Time) { q.Add(name) })
}

// AddRateLimited re-enqueues a failing item with exponential backoff:
// queueBaseDelay doubled per consecutive failure, capped at
// queueMaxDelay. Forget resets the item's failure count once it syncs
// cleanly.
func (q *workQueue) AddRateLimited(name string) {
	n := q.fails[name]
	q.fails[name] = n + 1
	q.c.Mgmt.Requeues++
	q.AddAfter(name, q.delayFor(n))
}

// delayFor is the rate limiter's delay after n consecutive failures.
func (q *workQueue) delayFor(n int) simtime.Duration {
	d := queueBaseDelay
	for i := 0; i < n && d < queueMaxDelay; i++ {
		d *= 2
	}
	return min(d, queueMaxDelay)
}

// Forget clears the item's rate-limiter state after a clean sync.
func (q *workQueue) Forget(name string) { delete(q.fails, name) }

// Pop removes and returns the oldest queued name.
func (q *workQueue) Pop() (string, bool) {
	if len(q.items) == 0 {
		return "", false
	}
	name := q.items[0].name
	q.items = q.items[1:]
	delete(q.queued, name)
	return name, true
}

// headSeq returns the enqueue sequence of the oldest queued item, or
// false on an empty queue.
func (q *workQueue) headSeq() (int64, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].seq, true
}

// Len returns the queue depth.
func (q *workQueue) Len() int { return len(q.items) }

// Reset drops all queued items and rate-limiter state (controller
// restart: the relist on election rebuilds the work set).
func (q *workQueue) Reset() {
	q.items = q.items[:0]
	q.queued = make(map[string]bool)
	q.fails = make(map[string]int)
}
