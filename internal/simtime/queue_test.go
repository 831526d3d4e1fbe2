package simtime

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the reference the engine's queue is checked against: an
// unordered slice whose pop takes the (at, seq) minimum by linear scan.
type refQueue []refEvent

func (r *refQueue) popMin() refEvent {
	q := *r
	m := 0
	for i, ev := range q {
		if ev.at < q[m].at || ev.at == q[m].at && ev.seq < q[m].seq {
			m = i
		}
	}
	min := q[m]
	q[m] = q[len(q)-1]
	*r = q[:len(q)-1]
	return min
}

func (r *refQueue) remove(id int) {
	q := *r
	for i, ev := range q {
		if ev.id == id {
			q[i] = q[len(q)-1]
			*r = q[:len(q)-1]
			return
		}
	}
}

func (r refQueue) minAt() Time {
	m := r[0].at
	for _, ev := range r[1:] {
		if ev.at < m {
			m = ev.at
		}
	}
	return m
}

// TestQueueMatchesReference drives the engine with a seeded random mix of
// detached and handle events on a handful of instants, cancels, callbacks
// that schedule at the current instant while its run drains, RunUntil,
// PeekTime and Advance. Every firing must be the (at, seq) minimum of the
// reference, and Len must be exact after every operation. Handle events
// pushed between the members of a same-instant run make the test fail if
// a run's successor re-entered the heap under its predecessor's key.
func TestQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		checkQueueAgainstReference(t, seed)
	}
}

func checkQueueAgainstReference(t *testing.T, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	e := NewEngine()
	var ref refQueue
	var seq uint64 // mirrors Engine.seq: one per Schedule or ScheduleDetached
	handles := map[int]*Event{}
	nextID := 0
	fired := 0

	checkLen := func(op string) {
		if e.Len() != len(ref) {
			t.Fatalf("seed %d: after %s Len() = %d, reference holds %d", seed, op, e.Len(), len(ref))
		}
	}
	// instant picks a time from a handful of instants near now, with the
	// current instant itself the most likely.
	instant := func() Time {
		return e.Now() + Time([]int{0, 0, 0, 1, 1, 2, 5}[rng.IntN(7)])
	}
	var schedule func(at Time)
	fire := func(id int) func(now Time) {
		return func(now Time) {
			fired++
			want := ref.popMin()
			if want.id != id || want.at != now {
				t.Fatalf("seed %d: fired event %d at %v, reference fires %d at %v", seed, id, now, want.id, want.at)
			}
			delete(handles, id)
			if rng.IntN(3) == 0 {
				schedule(now) // lands in the run for now while it drains
			}
		}
	}
	schedule = func(at Time) {
		id := nextID
		nextID++
		ref = append(ref, refEvent{at: at, seq: seq, id: id})
		seq++
		if rng.IntN(2) == 0 {
			e.ScheduleDetached(at, fire(id))
		} else {
			handles[id] = e.Schedule(at, fire(id))
		}
	}

	for op := 0; op < 2000; op++ {
		switch k := rng.IntN(10); {
		case k < 4:
			schedule(instant())
			checkLen("schedule")
		case k < 5:
			// Cancel a random pending handle event; map order is random,
			// so pick by scanning ids in the reference's order instead.
			for _, ev := range ref {
				if h, ok := handles[ev.id]; ok && rng.IntN(2) == 0 {
					if !h.Pending() {
						t.Fatalf("seed %d: handle %d not pending", seed, ev.id)
					}
					h.Cancel()
					if h.Pending() {
						t.Fatalf("seed %d: handle %d pending after Cancel", seed, ev.id)
					}
					ref.remove(ev.id)
					delete(handles, ev.id)
					break
				}
			}
			checkLen("cancel")
		case k < 7:
			pending := len(ref) > 0
			if got := e.Step(); got != pending {
				t.Fatalf("seed %d: Step() = %v with %d pending", seed, got, e.Len())
			}
			checkLen("step")
		case k < 8:
			deadline := e.Now() + Time(rng.IntN(4))
			e.RunUntil(deadline)
			if e.Now() != deadline {
				t.Fatalf("seed %d: RunUntil(%v) left clock at %v", seed, deadline, e.Now())
			}
			if len(ref) > 0 && ref.minAt() <= deadline {
				t.Fatalf("seed %d: RunUntil(%v) left an event at %v", seed, deadline, ref.minAt())
			}
			checkLen("RunUntil")
		case k < 9:
			at, ok := e.PeekTime()
			if ok != (len(ref) > 0) || ok && at != ref.minAt() {
				t.Fatalf("seed %d: PeekTime() = %v, %v; reference %d pending", seed, at, ok, len(ref))
			}
		default:
			d := Time(rng.IntN(3))
			if len(ref) > 0 && ref.minAt() < e.Now()+d {
				d = ref.minAt() - e.Now()
			}
			e.Advance(d)
			checkLen("Advance")
		}
	}
	for e.Step() {
		checkLen("drain")
	}
	if len(ref) != 0 || e.Len() != 0 {
		t.Fatalf("seed %d: drained engine, reference still holds %d, Len() = %d", seed, len(ref), e.Len())
	}
	if fired == 0 {
		t.Fatalf("seed %d: no event fired", seed)
	}
}

// TestEventSizeClass guards the Event layout: with the run link it must
// still fit the 48-byte allocation size class.
func TestEventSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 48 {
		t.Fatalf("Event is %d bytes, want at most 48", got)
	}
}
