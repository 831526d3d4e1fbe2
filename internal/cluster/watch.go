package cluster

import (
	"errors"
	"fmt"
)

// ErrConflict is returned by compare-and-swap updates when the object's
// resource version moved under the caller. Controllers retry by
// re-reading the object and requeueing the item (conflict-retry).
var ErrConflict = errors.New("cluster: resource version conflict")

// EventType classifies a watch event.
type EventType uint8

// Watch event types.
const (
	EventAdded EventType = iota
	EventModified
	EventDeleted
)

// String names an event type.
func (t EventType) String() string {
	switch t {
	case EventAdded:
		return "ADDED"
	case EventModified:
		return "MODIFIED"
	case EventDeleted:
		return "DELETED"
	default:
		return "?"
	}
}

// WatchEvent is one change notification on a TraceRequest. Events carry
// only the object's coordinates — consumers re-read the live object, so
// a stale event can never act on stale state.
type WatchEvent struct {
	// Type is the change kind.
	Type EventType
	// Name and ResourceVersion identify the object state that produced
	// the event.
	Name            string
	ResourceVersion int64
	// Phase is the object's phase at emission time.
	Phase Phase
	// Seq is the server-global emission sequence. Resource versions are
	// per shard, so a consumer draining several shard streams merges
	// them by Seq to recover the exact server-side emission order.
	Seq int64
}

// WatchStream is one consumer's buffered view of the API server's change
// feed. The buffer is bounded: when a slow consumer overflows it, the
// oldest events are dropped and the stream is marked stale — the
// consumer must relist to resynchronize, exactly the "resource version
// too old" contract of a real watch.
//
// The buffered events are buf[head:]. Popping advances head, so a drain
// moves no memory; an emptied buffer rewinds to the start of its storage,
// and a push that finds the storage full slides the live events down
// once at least half of it is consumed. A stream that is drained and
// refilled therefore reuses one array and stops allocating after warm-up.
type WatchStream struct {
	buf   []WatchEvent
	head  int
	max   int
	stale bool
	// notify, when set, fires each time the buffer goes from empty to
	// non-empty (edge-triggered), letting consumers schedule a drain.
	notify func()
}

// Next pops the oldest buffered event.
func (w *WatchStream) Next() (WatchEvent, bool) {
	if w.head == len(w.buf) {
		return WatchEvent{}, false
	}
	ev := w.buf[w.head]
	w.head++
	if w.head == len(w.buf) {
		w.buf, w.head = w.buf[:0], 0
	}
	return ev, true
}

// Len returns the number of buffered events.
func (w *WatchStream) Len() int { return len(w.buf) - w.head }

// peek returns the oldest buffered event without removing it.
func (w *WatchStream) peek() (WatchEvent, bool) {
	if w.head == len(w.buf) {
		return WatchEvent{}, false
	}
	return w.buf[w.head], true
}

// Stale reports whether events were dropped since the last Reset; the
// consumer's cached view may be incomplete and it must relist.
func (w *WatchStream) Stale() bool { return w.stale }

// Reset empties the stream and clears the stale flag (called after a
// relist resynchronizes the consumer).
func (w *WatchStream) Reset() {
	w.buf, w.head = w.buf[:0], 0
	w.stale = false
}

// push appends an event, dropping the oldest on overflow.
func (w *WatchStream) push(ev WatchEvent) {
	wasEmpty := w.Len() == 0
	if w.max > 0 && w.Len() >= w.max {
		w.head++
		w.stale = true
	}
	if len(w.buf) == cap(w.buf) && w.head > 0 && 2*w.head >= len(w.buf) {
		// Compacting only once half the storage is consumed keeps every
		// event's share of the copying constant.
		n := copy(w.buf, w.buf[w.head:])
		w.buf, w.head = w.buf[:n], 0
	}
	w.buf = append(w.buf, ev)
	if wasEmpty && w.notify != nil {
		w.notify()
	}
}

// watchBuf bounds each controller's per-shard watch-stream buffer;
// overflow marks the stream stale and forces a relist.
const watchBuf = 1024

// WatchStream opens a new buffered change stream observing every shard
// (the tooling view). bufMax bounds the buffer (<= 0 uses watchBuf);
// notify, when non-nil, fires on the empty-to-non-empty edge.
func (a *APIServer) WatchStream(bufMax int, notify func()) *WatchStream {
	if bufMax <= 0 {
		bufMax = watchBuf
	}
	w := &WatchStream{max: bufMax, notify: notify}
	a.global = append(a.global, w)
	return w
}

// WatchShard opens a buffered change stream scoped to one shard: only
// that shard's mutations are delivered, so overflow (and the resulting
// stale → relist) is contained to the shard. Controllers open one per
// shard and merge drains by WatchEvent.Seq. Its buffer holds watchBuf
// events.
func (a *APIServer) WatchShard(si int, notify func()) *WatchStream {
	w := &WatchStream{max: watchBuf, notify: notify}
	s := a.shards[si]
	s.mu.Lock()
	s.streams = append(s.streams, w)
	s.mu.Unlock()
	return w
}

// emitLocked fans one event out to the shard's streams and every global
// stream; the caller holds the shard lock.
func (a *APIServer) emitLocked(s *apiShard, typ EventType, r *TraceRequest) {
	if len(s.streams) == 0 && len(a.global) == 0 {
		return
	}
	a.evSeq++
	ev := WatchEvent{Type: typ, Name: r.Name, ResourceVersion: r.ResourceVersion, Phase: r.Phase, Seq: a.evSeq}
	for _, w := range s.streams {
		w.push(ev)
	}
	for _, w := range a.global {
		w.push(ev)
	}
}

// bumpLocked assigns the object the owning shard's next resource
// version; the caller holds the shard lock.
func (a *APIServer) bumpLocked(s *apiShard, r *TraceRequest) {
	s.rv++
	r.ResourceVersion = s.rv
}

// Touch bumps the object's resource version and notifies watchers of a
// modification that is not a phase transition (e.g. a lost session slot
// recorded on the object for failover recovery).
func (a *APIServer) Touch(r *TraceRequest) {
	s := a.shards[r.shard]
	s.mu.Lock()
	a.bumpLocked(s, r)
	a.emitLocked(s, EventModified, r)
	s.mu.Unlock()
}

// CASPhase transitions a request's phase if and only if its resource
// version still equals expectRV, returning ErrConflict otherwise. This
// is the idempotency lock replicated controllers take before opening
// sessions: whichever replica wins the CAS owns the transition, and the
// loser re-reads and observes the work already done.
func (a *APIServer) CASPhase(r *TraceRequest, expectRV int64, phase Phase, msg string) error {
	if r.ResourceVersion != expectRV {
		return fmt.Errorf("%w: %s is at %d, caller expected %d",
			ErrConflict, r.Name, r.ResourceVersion, expectRV)
	}
	a.setPhase(r, phase, msg)
	return nil
}
