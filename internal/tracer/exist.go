package tracer

import (
	"fmt"

	"exist/internal/core"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// EXIST adapts core's controller/session lifecycle to the Backend
// interface so scheme sweeps, the cluster, and the daemon drive EXIST the
// same way they drive the baselines. Attach opens an HRT-bounded session;
// the window closes itself, so Stop is a no-op, and the harvest accessors
// (SpaceMB, MSROps, Session) read the closed session's result.
type EXIST struct {
	opts Options
	sess *core.Session
	res  *trace.Session
	err  error
}

// Name implements Backend.
func (e *EXIST) Name() string { return "EXIST" }

// Attach implements Backend: it creates a controller on the machine and
// opens one session on the target for the configured period.
func (e *EXIST) Attach(m *sched.Machine, target *sched.Process) error {
	ctrl := core.NewController(m)
	c := core.DefaultConfig()
	c.Period = e.opts.Period
	if e.opts.Scale > 0 {
		c.Scale = e.opts.Scale
	}
	c.Seed = e.opts.Seed
	if e.opts.Mem != nil {
		c.Mem = *e.opts.Mem
	}
	c.SessionID = e.opts.SessionID
	s, err := ctrl.Trace(target, c)
	if err != nil {
		return fmt.Errorf("EXIST trace: %w", err)
	}
	e.sess = s
	return nil
}

// Stop implements Backend. The session's high-resolution timer closes the
// window; Stop only resolves the result so the harvest accessors work.
func (e *EXIST) Stop(simtime.Time) {
	if e.sess == nil || e.res != nil || e.err != nil {
		return
	}
	res, err := e.sess.Result()
	if err != nil {
		e.err = fmt.Errorf("EXIST result: %w", err)
		return
	}
	e.res = res
}

// Err implements ErrBackend: a session whose window had not closed when
// the run ended surfaces here.
func (e *EXIST) Err() error { return e.err }

// SpaceMB implements Backend.
func (e *EXIST) SpaceMB() float64 {
	if e.res == nil {
		return 0
	}
	return e.res.SpaceMB()
}

// MSROps implements MSRBackend.
func (e *EXIST) MSROps() int64 {
	if e.sess == nil {
		return 0
	}
	return e.sess.Stats.MSROps
}

// Session implements SessionBackend (the workload label is already on the
// session).
func (e *EXIST) Session(string) *trace.Session { return e.res }

// CoreSession exposes the underlying core session for callers that need
// plan or control-path detail (the daemon's UMA report, cluster tests).
func (e *EXIST) CoreSession() *core.Session { return e.sess }
