package experiments

import (
	"sync"
	"syscall"
	"time"

	"exist/internal/parallel"
)

// RunReport is one experiment's outcome as run by the harness.
type RunReport struct {
	// ID, Title, Paper echo the registry entry.
	ID    string
	Title string
	Paper string
	// Result is the experiment output (nil on error).
	Result *Result
	// Err is the failure, if any.
	Err error
	// Wall is the experiment's wall-clock runtime.
	Wall time.Duration
	// CPU is the process CPU (user+system) consumed during the
	// experiment's wall window. With Jobs=1 this is the experiment's own
	// cost; with concurrent experiments the windows overlap, so per-ID
	// attribution is only exact in serial runs (benchmark harnesses
	// record CPU from -jobs 1 passes).
	CPU time.Duration
}

// cpuTime reads the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// RunAll executes the named experiments — concurrently when cfg.Jobs allows
// — and returns reports in input order. Output is identical for any job
// count: every experiment derives randomness from cfg.Seed and stable cell
// identifiers, never from scheduling. Unknown IDs surface as per-report
// errors; validate up front with ByID to fail fast instead. The
// experiments of one call share a sweep memo, so a table that summarizes
// another experiment's sweep (tab03) reads it instead of re-running it.
func RunAll(cfg Config, ids []string) []RunReport {
	cfg.memo = &sync.Map{}
	return parallel.Map(len(ids), cfg.Jobs, func(i int) RunReport {
		rep := RunReport{ID: ids[i]}
		e, err := ByID(ids[i])
		if err != nil {
			rep.Err = err
			return rep
		}
		rep.Title, rep.Paper = e.Title, e.Paper
		start := time.Now()
		cpuStart := cpuTime()
		rep.Result, rep.Err = e.Run(cfg)
		rep.Wall = time.Since(start)
		rep.CPU = cpuTime() - cpuStart
		return rep
	})
}
