package rows

import "exist/internal/simtime"

// Fleet-scale timer shape of the same-instant engine fixture: lite-node
// lease heartbeats armed in phase and re-armed every period, over a
// backlog of far-future timers (crash, churn and deadline events).
const (
	engineBeats  = 100_000
	engineFar    = 100_000
	enginePeriod = 200 * simtime.Millisecond
	// farFuture is about 13 simulated days: no benchmark runs enough
	// periods to reach the far timers.
	farFuture = simtime.Time(1) << 50
)

// engineBench drives a simtime engine with the fleet's in-phase
// heartbeats: every beat is a detached timer that re-arms itself one
// period later, so all of them share the same instants forever.
type engineBench struct {
	eng *simtime.Engine
}

// newEngineBench arms engineFar detached timers at distinct far-future
// times, then engineBeats in-phase beats, and runs one warm-up period so
// the queue and the engine's free list are in their steady state.
func newEngineBench() *engineBench {
	b := &engineBench{eng: simtime.NewEngine()}
	noop := func(simtime.Time) {}
	for i := 0; i < engineFar; i++ {
		b.eng.ScheduleDetached(farFuture+simtime.Time(i)*7919, noop)
	}
	var beat func(simtime.Time)
	beat = func(simtime.Time) { b.eng.AfterDetached(enginePeriod, beat) }
	for i := 0; i < engineBeats; i++ {
		b.eng.AfterDetached(enginePeriod, beat)
	}
	b.runPeriod()
	return b
}

// runPeriod advances the engine one period, firing every beat once.
func (b *engineBench) runPeriod() {
	b.eng.RunUntil(b.eng.Now() + enginePeriod)
}

// Machine-node event shape of the chained engine fixture: one 8-core node
// whose cores each pop a segment end and push the next, with a blocking
// thread's dispatch at the same instant and its wake timer among a few
// dozen pending ones.
const (
	chainCores  = 8
	chainWindow = 10 * simtime.Millisecond
	// chainBlock is one in chainBlock segments ending in a blocking
	// syscall: the core pushes a dispatch at the current instant and a
	// wake timer instead of its next segment end.
	chainBlock = 4
	// A mean wake of about 4 ms against about 8 blocks per simulated
	// millisecond keeps some 32 wake timers pending.
	chainWakes = 32
)

// chainBench drives a simtime engine with a machine node's chained
// traffic: the pattern the front slot of the event queue serves.
type chainBench struct {
	eng      *simtime.Engine
	x        uint64 // xorshift state
	segEnd   [chainCores]func(simtime.Time)
	dispatch [chainCores]func(simtime.Time)
	wake     func(simtime.Time)
	kick     func(simtime.Time)
}

// newChainBench arms every core's first segment end and chainWakes wake
// timers, then runs one warm-up window so the engine's free list is in
// its steady state.
func newChainBench() *chainBench {
	b := &chainBench{eng: simtime.NewEngine(), x: 0x9e3779b97f4a7c15}
	// A wake finds its core busy: the dispatch it kicks does nothing.
	b.kick = func(simtime.Time) {}
	b.wake = func(now simtime.Time) { b.eng.ScheduleDetached(now, b.kick) }
	for c := range b.segEnd {
		b.segEnd[c] = func(now simtime.Time) {
			if b.next()%chainBlock == 0 {
				b.eng.ScheduleDetached(now, b.dispatch[c])
				b.eng.ScheduleDetached(now+b.wakeDelay(), b.wake)
				return
			}
			b.eng.ScheduleDetached(now+b.segment(), b.segEnd[c])
		}
		b.dispatch[c] = func(now simtime.Time) {
			b.eng.ScheduleDetached(now+b.segment(), b.segEnd[c])
		}
		b.eng.ScheduleDetached(b.segment(), b.segEnd[c])
	}
	for i := 0; i < chainWakes; i++ {
		b.eng.ScheduleDetached(b.wakeDelay(), b.wake)
	}
	b.runWindow()
	return b
}

// next steps the xorshift generator.
func (b *chainBench) next() uint64 {
	b.x ^= b.x << 13
	b.x ^= b.x >> 7
	b.x ^= b.x << 17
	return b.x
}

// segment draws a segment length in [10 µs, 500 µs).
func (b *chainBench) segment() simtime.Duration {
	return 10*simtime.Microsecond + simtime.Duration(b.next()%uint64(490*simtime.Microsecond))
}

// wakeDelay draws a blocking duration in [100 µs, 8 ms).
func (b *chainBench) wakeDelay() simtime.Duration {
	return 100*simtime.Microsecond + simtime.Duration(b.next()%uint64(7900*simtime.Microsecond))
}

// runWindow advances the engine one chainWindow of simulated time.
func (b *chainBench) runWindow() {
	b.eng.RunUntil(b.eng.Now() + chainWindow)
}

func engineHot() Fixture { return Fixture{Op: newEngineBench().runPeriod} }

func engineChain() Fixture { return Fixture{Op: newChainBench().runWindow} }
