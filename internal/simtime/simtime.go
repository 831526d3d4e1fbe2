// Package simtime provides the virtual clock and discrete-event engine that
// every simulated substrate in this repository is built on.
//
// All simulation time is virtual: a Time is a count of simulated nanoseconds
// since the start of the run. Nothing in this package (or in any simulation
// built on it) reads the wall clock, which keeps every experiment
// deterministic and reproducible.
package simtime

import (
	"fmt"
)

// Time is a point in virtual time, in nanoseconds since the simulation epoch.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration = Time

// Common durations, mirroring package time but for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Event is a scheduled callback in an Engine. Events are created by
// Engine.Schedule and may be cancelled until they fire.
type Event struct {
	at     Time
	seq    uint64
	fn     func(now Time)
	next   *Event // next member of a same-instant run (see eventQueue); detached only
	engine *Engine
	// index is the queue position (see eventQueue), deadIndex once fired
	// or cancelled. It is 32 bits so that, packed beside detached, the
	// struct stays in the 48-byte allocation size class.
	index    int32
	detached bool // recycled after firing; no handle exists outside the engine
}

// At returns the virtual time the event is scheduled to fire at.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.index != deadIndex }

// Cancel removes the event from its engine's queue. Cancelling an event that
// already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.index == deadIndex {
		return
	}
	e.engine.queue.remove(e)
}

// heapEntry is one slot of the event queue: the (at, seq) sort key stored
// inline next to the event pointer, so ordering work reads sequential slice
// memory instead of dereferencing events scattered across the heap's
// allocations. Queue operations only touch an *Event to maintain its index
// field when an entry actually moves — and only for handle-carrying
// events: the entry's seq carries the engine sequence shifted left one
// bit with the detached flag in bit 0 (order-preserving, since engine
// sequences are unique), so the queue can tell without a dereference that
// a detached event needs no index upkeep. Detached events cannot be
// cancelled or inspected, and index is only read by Cancel/Pending, so
// skipping the write avoids a cache-cold store per move for the bulk of
// traffic.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// handleEntry and detachedEntry build an event's queue entry, packing
// the detached flag into bit 0 of the key's seq.
func handleEntry(ev *Event) heapEntry   { return heapEntry{at: ev.at, seq: ev.seq << 1, ev: ev} }
func detachedEntry(ev *Event) heapEntry { return heapEntry{at: ev.at, seq: ev.seq<<1 | 1, ev: ev} }

// deadIndex marks an event that fired or was cancelled, and frontIndex a
// handle event held in the queue's front slot. Live events in the heap
// carry a non-negative heap position.
const (
	deadIndex  = -1
	frontIndex = -2
)

// setIndex records the queue position (a heap index or frontIndex) on
// handle-carrying events.
func (e heapEntry) setIndex(i int) {
	if e.seq&1 == 0 {
		e.ev.index = int32(i)
	}
}

// entryBefore reports the (at, seq) ordering.
func entryBefore(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a monomorphic 4-ary min-heap of entries ordered by
// (at, seq). The 4-ary shape halves the tree depth versus binary, and the
// inline keys keep each sift level's comparisons within two cache lines.
type eventHeap []heapEntry

// push inserts e, maintaining the heap order and index fields.
func (h *eventHeap) push(e heapEntry) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !entryBefore(e, p) {
			break
		}
		q[i] = p
		p.setIndex(i)
		i = parent
	}
	q[i] = e
	e.setIndex(i)
	*h = q
}

// siftDown places e at position i, moving smaller children up.
func (h *eventHeap) siftDown(e heapEntry, i int) {
	q := *h
	n := len(q)
	for {
		child := i<<2 + 1
		if child >= n {
			break
		}
		mc := child
		end := child + 4
		if end > n {
			end = n
		}
		for c := child + 1; c < end; c++ {
			if entryBefore(q[c], q[mc]) {
				mc = c
			}
		}
		if !entryBefore(q[mc], e) {
			break
		}
		q[i] = q[mc]
		q[i].setIndex(i)
		i = mc
	}
	q[i] = e
	e.setIndex(i)
}

// siftUp places e at position i, moving larger parents down.
func (h *eventHeap) siftUp(e heapEntry, i int) {
	q := *h
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !entryBefore(e, p) {
			break
		}
		q[i] = p
		p.setIndex(i)
		i = parent
	}
	q[i] = e
	e.setIndex(i)
}

// remove deletes the entry at heap position i.
func (h *eventHeap) remove(i int) {
	q := *h
	q[i].ev.index = deadIndex
	n := len(q) - 1
	last := q[n]
	q[n] = heapEntry{}
	*h = q[:n]
	if i == n {
		return
	}
	// Re-place the displaced tail element: it moves up when it beats the
	// parent of the vacated slot, down otherwise.
	if i > 0 && entryBefore(last, q[(i-1)>>2]) {
		h.siftUp(last, i)
	} else {
		h.siftDown(last, i)
	}
}

// eventQueue is the engine's priority queue of events ordered by
// (at, seq): a one-entry front slot ahead of a 4-ary min-heap, both
// holding entries that are runs. The seq tiebreak makes simultaneous
// events fire in scheduling order, which keeps runs deterministic — and
// because (at, seq) is a total order, the pop sequence is independent of
// the queue's internal layout, so changing its shape or storage cannot
// perturb a run.
//
// The front slot, when occupied, is strictly before every heap entry. A
// push strictly earlier than both the slot and the heap minimum takes
// the slot, and the old occupant moves into the heap; any other push
// goes to the heap. Pop and peek read the slot first. A machine node's
// common chain — pop a segment end, push the next segment end or a
// dispatch at the current instant — thus costs no sift whenever the new
// event is the earliest. A handle event in the slot carries frontIndex,
// so Cancel and Pending find it there.
//
// A run is a FIFO chain (Event.next) of detached events that share one
// exact instant, kept behind a single entry under its head's key. A
// detached push whose time equals that of tail — the last detached event
// pushed — appends to tail's run in O(1) instead of paying a sift through
// the heap; every other push gets an entry of its own. Periodic timers
// armed in phase (100k lease heartbeats re-arming every period) thus
// cost one entry per distinct instant rather than one per timer. When a
// run's head pops, its successor is placed under its own key: from the
// heap root it sifts down, usually zero or one level; from the slot it
// is placed again by the push rule. The order stays exact because
// Engine.seq only grows: a run is appended in seq order, so it is sorted
// by (at, seq), and a handle event pushed between two run members at the
// same instant still fires between them. Only detached events chain, so
// Cancel, Pending and the index upkeep see single entries. (A two-band
// near/far heap was measured on small queues and lost to the plain heap;
// runs cost one pointer compare per push where nothing coalesces.)
type eventQueue struct {
	front heapEntry // the front slot; empty when front.ev is nil
	heap  eventHeap
	n     int    // pending events, run members included
	tail  *Event // last detached event pushed, while it is pending
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return q.n }

// push inserts a handle-carrying event.
func (q *eventQueue) push(ev *Event) {
	q.n++
	q.place(handleEntry(ev))
}

// pushDetached inserts a detached event, appending it to tail's run when
// the two share an instant.
func (q *eventQueue) pushDetached(ev *Event) {
	q.n++
	if t := q.tail; t != nil && t.at == ev.at {
		t.next = ev
		q.tail = ev
		return
	}
	q.tail = ev
	q.place(detachedEntry(ev))
}

// place puts e in the front slot when it is strictly before both the
// slot's occupant and the heap minimum, moving the occupant into the
// heap, and into the heap otherwise.
func (q *eventQueue) place(e heapEntry) {
	if f := q.front; f.ev != nil {
		if !entryBefore(e, f) {
			q.heap.push(e)
			return
		}
		q.heap.push(f)
	} else if len(q.heap) > 0 && !entryBefore(e, q.heap[0]) {
		q.heap.push(e)
		return
	}
	q.front = e
	e.setIndex(frontIndex)
}

// peek returns the key of the earliest event. It must not be called on an
// empty queue.
func (q *eventQueue) peek() heapEntry {
	if q.front.ev != nil {
		return q.front
	}
	return q.heap[0]
}

// popMin removes and returns the earliest event: the front slot's, or
// else the heap root's. A run head's successor takes its place under its
// own key: from the slot it is placed again by the push rule; at the root
// it sifts down, as does the last entry when the root ends its run, so
// the heap keeps holding the head of every run outside the slot.
func (q *eventQueue) popMin() *Event {
	q.n--
	if top := q.front.ev; top != nil {
		top.index = deadIndex
		q.front = heapEntry{}
		if nx := top.next; nx != nil {
			top.next = nil
			q.place(detachedEntry(nx))
		} else if top == q.tail {
			q.tail = nil
		}
		return top
	}
	top := q.heap[0].ev
	top.index = deadIndex
	var e heapEntry
	if nx := top.next; nx != nil {
		top.next = nil
		e = detachedEntry(nx)
	} else {
		if top == q.tail {
			q.tail = nil
		}
		h := q.heap
		n := len(h) - 1
		e = h[n]
		h[n] = heapEntry{}
		q.heap = h[:n]
		if n == 0 {
			return top
		}
	}
	q.heap.siftDown(e, 0)
	return top
}

// remove deletes a pending handle-carrying event.
func (q *eventQueue) remove(ev *Event) {
	q.n--
	if ev.index == frontIndex {
		ev.index = deadIndex
		q.front = heapEntry{}
		return
	}
	q.heap.remove(int(ev.index))
}

// Engine is a discrete-event simulation engine: a virtual clock plus a queue
// of timed callbacks. The zero value is ready to use and starts at time 0.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	free  []*Event // recycled detached events; see ScheduleDetached
}

// NewEngine returns an engine whose clock starts at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending events.
func (e *Engine) Len() int { return e.queue.Len() }

// Schedule queues fn to run at the absolute virtual time at. Scheduling in
// the past (at < Now) panics: the simulated past is immutable, and silently
// warping an event forward would hide bugs in the caller.
func (e *Engine) Schedule(at Time, fn func(now Time)) *Event {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn, engine: e}
	e.seq++
	e.queue.push(ev)
	return ev
}

// After queues fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func(now Time)) *Event {
	return e.Schedule(e.now+d, fn)
}

// ScheduleDetached queues fn like Schedule but returns no handle: the
// event cannot be cancelled or inspected, which lets the engine recycle
// the Event struct through a free list the moment it fires. Most of the
// control plane schedules fire-and-forget timers and discards the
// handle; routing those through here removes the per-event allocation
// once the free list warms up. (Handle-carrying events are never pooled
// — a caller could hold a stale *Event across reuse and cancel somebody
// else's timer.)
func (e *Engine) ScheduleDetached(at Time, fn func(now Time)) {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn, engine: e, detached: true}
	}
	e.seq++
	e.queue.pushDetached(ev)
}

// AfterDetached queues fn to run d nanoseconds from now with no handle;
// see ScheduleDetached.
func (e *Engine) AfterDetached(d Duration, fn func(now Time)) {
	e.ScheduleDetached(e.now+d, fn)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if no events are pending.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := e.queue.popMin()
	e.now = ev.at
	fn := ev.fn
	if ev.detached {
		// Recycle before firing so the callback itself can reuse the
		// struct; fn is cleared so the free list does not pin closures.
		ev.fn = nil
		e.free = append(e.free, ev)
		if n := len(e.free); n > freeFloor && n > 2*e.queue.Len() {
			// Cut back to the pending count, clearing the dropped
			// pointers, so a burst of detached timers (a fleet's 200k
			// sessions in flight at once) does not pin its events for
			// the engine's lifetime.
			keep := e.queue.Len()
			clear(e.free[keep:])
			e.free = e.free[:keep]
		}
	}
	fn(e.now)
	return true
}

// freeFloor is the free-list length below which Step never trims it;
// above it, Step trims once the list holds more than twice the pending
// count.
const freeFloor = 4096

// PeekTime returns the time of the earliest pending event, or ok=false when
// the queue is empty.
func (e *Engine) PeekTime() (t Time, ok bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue.peek().at, true
}

// RunUntil fires events in order until the queue is empty or the next event
// is after deadline, then advances the clock to deadline.
func (e *Engine) RunUntil(deadline Time) {
	for e.queue.Len() > 0 && e.queue.peek().at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Advance moves the clock forward by d without firing events. It panics if
// an event is pending before the new time; use RunUntil to process events.
func (e *Engine) Advance(d Duration) {
	target := e.now + d
	if t, ok := e.PeekTime(); ok && t < target {
		panic(fmt.Sprintf("simtime: Advance(%v) would skip event at %v", d, t))
	}
	e.now = target
}
