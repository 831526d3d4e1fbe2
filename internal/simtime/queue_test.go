package simtime

import (
	"fmt"
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
// detached and handle events on a handful of instants, pushes strictly
// before the current minimum (which take the front slot), cancels,
// callbacks that schedule at the current instant while its run drains,
// RunUntil, PeekTime and Advance. Every firing must be the (at, seq)
// minimum of the reference, and Len must be exact after every operation.
// Handle events pushed between the members of a same-instant run make the
// test fail if a run's successor re-entered the queue under its
// predecessor's key. Across the seeds the mix must reach each front-slot
// case: a handle cancelled in the slot, a handle pushed behind a slot
// run's head at its instant, and RunUntil and Advance with the slot held.
func TestQueueMatchesReference(t *testing.T) {
	var total slotCases
	for seed := uint64(1); seed <= 200; seed++ {
		c := checkQueueAgainstReference(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewPCG(seed, 0x5eed)), 2000)
		total.cancels += c.cancels
		total.runSplits += c.runSplits
		total.runUntils += c.runUntils
		total.advances += c.advances
		if c.fired == 0 {
			t.Fatalf("seed %d: no event fired", seed)
		}
	}
	if total.cancels == 0 || total.runSplits == 0 || total.runUntils == 0 || total.advances == 0 {
		t.Fatalf("front-slot cases not all reached: %+v", total)
	}
}

// FuzzEventQueue runs the reference check on ops drawn from fuzzed bytes,
// one byte per choice. The corpus under testdata/fuzz seeds op mixes that
// reach the front slot.
//
// Run with: go test -fuzz=FuzzEventQueue ./internal/simtime
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueueAgainstReference(t, "fuzz", &byteOps{data}, len(data))
	})
}

// opSource supplies the checker's choices: a seeded generator or a
// fuzzer's bytes.
type opSource interface{ IntN(n int) int }

// byteOps takes one choice per byte. Once the bytes run out it returns
// n-1, which never makes a firing schedule another, so the drain ends.
type byteOps struct{ b []byte }

func (o *byteOps) IntN(n int) int {
	if len(o.b) == 0 {
		return n - 1
	}
	v := int(o.b[0]) % n
	o.b = o.b[1:]
	return v
}

// slotCases counts the firings and the front-slot cases a check reached.
type slotCases struct {
	cancels   int // a handle event cancelled while in the slot
	runSplits int // a handle pushed at the instant of a detached run headed in the slot
	runUntils int // RunUntil called with the slot occupied
	advances  int // Advance called with the slot occupied
	fired     int
}

func checkQueueAgainstReference(t *testing.T, name string, rng opSource, ops int) slotCases {
	t.Helper()
	e := NewEngine()
	var ref refQueue
	var seq uint64 // mirrors Engine.seq: one per Schedule or ScheduleDetached
	handles := map[int]*Event{}
	nextID := 0
	var cases slotCases
	slotHeld := func() bool { return e.queue.front.ev != nil }

	checkLen := func(op string) {
		if e.Len() != len(ref) {
			t.Fatalf("%s: after %s Len() = %d, reference holds %d", name, op, e.Len(), len(ref))
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
			cases.fired++
			want := ref.popMin()
			if want.id != id || want.at != now {
				t.Fatalf("%s: fired event %d at %v, reference fires %d at %v", name, id, now, want.id, want.at)
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
			return
		}
		if f := e.queue.front; f.ev != nil && f.at == at && f.ev.detached && e.queue.tail != nil && e.queue.tail.at == at {
			cases.runSplits++
		}
		handles[id] = e.Schedule(at, fire(id))
	}

	for op := 0; op < ops; op++ {
		switch k := rng.IntN(11); {
		case k < 4:
			schedule(instant())
			checkLen("schedule")
		case k < 5:
			// Strictly before the current minimum: the push takes the
			// front slot.
			if len(ref) > 0 && ref.minAt() > e.Now() {
				schedule(e.Now() + Time(rng.IntN(int(ref.minAt()-e.Now()))))
				checkLen("early schedule")
			}
		case k < 6:
			// Cancel a random pending handle event; map order is random,
			// so pick by scanning ids in the reference's order instead.
			for _, ev := range ref {
				if h, ok := handles[ev.id]; ok && rng.IntN(2) == 0 {
					if !h.Pending() {
						t.Fatalf("%s: handle %d not pending", name, ev.id)
					}
					if h.index == frontIndex {
						cases.cancels++
					}
					h.Cancel()
					if h.Pending() {
						t.Fatalf("%s: handle %d pending after Cancel", name, ev.id)
					}
					ref.remove(ev.id)
					delete(handles, ev.id)
					break
				}
			}
			checkLen("cancel")
		case k < 8:
			pending := len(ref) > 0
			if got := e.Step(); got != pending {
				t.Fatalf("%s: Step() = %v with %d pending", name, got, e.Len())
			}
			checkLen("step")
		case k < 9:
			if slotHeld() {
				cases.runUntils++
			}
			deadline := e.Now() + Time(rng.IntN(4))
			e.RunUntil(deadline)
			if e.Now() != deadline {
				t.Fatalf("%s: RunUntil(%v) left clock at %v", name, deadline, e.Now())
			}
			if len(ref) > 0 && ref.minAt() <= deadline {
				t.Fatalf("%s: RunUntil(%v) left an event at %v", name, deadline, ref.minAt())
			}
			checkLen("RunUntil")
		case k < 10:
			at, ok := e.PeekTime()
			if ok != (len(ref) > 0) || ok && at != ref.minAt() {
				t.Fatalf("%s: PeekTime() = %v, %v; reference %d pending", name, at, ok, len(ref))
			}
		default:
			if slotHeld() {
				cases.advances++
			}
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
		t.Fatalf("%s: drained engine, reference still holds %d, Len() = %d", name, len(ref), e.Len())
	}
	return cases
}

// TestEventSizeClass guards the Event layout: with the run link it must
// still fit the 48-byte allocation size class.
func TestEventSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 48 {
		t.Fatalf("Event is %d bytes, want at most 48", got)
	}
}
