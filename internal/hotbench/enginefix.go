package hotbench

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

// EngineBench drives a simtime engine with the fleet's in-phase
// heartbeats: every beat is a detached timer that re-arms itself one
// period later, so all of them share the same instants forever.
type EngineBench struct {
	eng *simtime.Engine
}

// NewEngineBench arms engineFar detached timers at distinct far-future
// times, then engineBeats in-phase beats, and runs one warm-up period so
// the queue and the engine's free list are in their steady state.
func NewEngineBench() *EngineBench {
	b := &EngineBench{eng: simtime.NewEngine()}
	noop := func(simtime.Time) {}
	for i := 0; i < engineFar; i++ {
		b.eng.ScheduleDetached(farFuture+simtime.Time(i)*7919, noop)
	}
	var beat func(simtime.Time)
	beat = func(simtime.Time) { b.eng.AfterDetached(enginePeriod, beat) }
	for i := 0; i < engineBeats; i++ {
		b.eng.AfterDetached(enginePeriod, beat)
	}
	b.RunPeriod()
	return b
}

// RunPeriod advances the engine one period, firing every beat once.
func (b *EngineBench) RunPeriod() {
	b.eng.RunUntil(b.eng.Now() + enginePeriod)
}
