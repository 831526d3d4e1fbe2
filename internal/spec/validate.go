package spec

import (
	"math"
	"strconv"
)

// Validate checks a decoded document's semantic invariants: positive
// distribution parameters, rate fractions summing to ~1, known enum
// values, and well-formed mixes. Parse calls it; loaders that assemble
// documents programmatically can call it directly.
func (doc *Document) Validate() error {
	if doc.Version != 1 {
		return errf(doc.Src, 0, "version", "unsupported spec version %d (this build understands version 1)", doc.Version)
	}
	seen := map[string]bool{}
	for i, p := range doc.Profiles {
		path := profilePath(i, p.Name)
		if p.Name == "" {
			return errf(doc.Src, p.Line, path, "profile needs a name")
		}
		if seen[p.Name] {
			return errf(doc.Src, p.Line, path, "duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if err := doc.validateProfile(p, path); err != nil {
			return err
		}
	}
	if doc.Scenario != nil {
		if err := doc.validateScenario(doc.Scenario); err != nil {
			return err
		}
	}
	return nil
}

func profilePath(i int, name string) string {
	if name != "" {
		return "profiles." + name
	}
	return "profiles[" + strconv.Itoa(i) + "]"
}

func (doc *Document) validateProfile(p Profile, path string) error {
	switch p.Class {
	case "", "compute", "online", "cloud":
	default:
		return errf(doc.Src, p.Line, path, "unknown class %q (want compute, online or cloud)", p.Class)
	}
	switch p.Mode {
	case "", "cpuset", "cpushare":
	default:
		return errf(doc.Src, p.Line, path, "unknown mode %q (want cpuset or cpushare)", p.Mode)
	}
	pos := func(name string, v *float64) error {
		if v != nil && (!(*v > 0) || math.IsInf(*v, 0)) {
			return errf(doc.Src, p.Line, path, "%s must be positive, got %g", name, *v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    *float64
	}{
		{"branch_per_kcycle", p.BranchPerKCycle},
		{"ipc", p.IPC},
	} {
		if err := pos(c.name, c.v); err != nil {
			return err
		}
	}
	if p.IndirectFrac != nil && !(*p.IndirectFrac >= 0 && *p.IndirectFrac <= 1) {
		return errf(doc.Src, p.Line, path, "indirect_frac must be in [0, 1], got %g", *p.IndirectFrac)
	}
	if p.MeanCyclesPerSyscall != nil && *p.MeanCyclesPerSyscall < 0 {
		return errf(doc.Src, p.Line, path, "mean_cycles_per_syscall must not be negative")
	}
	for _, c := range []struct {
		name string
		v    *int
	}{
		{"threads", p.Threads}, {"cores_wanted", p.CoresWanted},
		{"priority", p.Priority}, {"past_issues", p.PastIssues},
		{"funcs", p.Funcs}, {"avg_block_cycles", p.AvgBlockCycles},
	} {
		if c.v != nil && *c.v < 0 {
			return errf(doc.Src, p.Line, path, "%s must not be negative, got %d", c.name, *c.v)
		}
	}
	if err := doc.validateWeights(p.Syscalls, p.Line, path+".syscalls"); err != nil {
		return err
	}
	if err := doc.validateWeights(p.Categories, p.Line, path+".categories"); err != nil {
		return err
	}
	if p.MemClassMix != nil && len(p.MemClassMix) != 3 {
		return errf(doc.Src, p.Line, path, "mem_class_mix needs exactly 3 weights, got %d", len(p.MemClassMix))
	}
	if p.MemWidthMix != nil && len(p.MemWidthMix) != 4 {
		return errf(doc.Src, p.Line, path, "mem_width_mix needs exactly 4 weights, got %d", len(p.MemWidthMix))
	}
	for _, mix := range [][]float64{p.MemClassMix, p.MemWidthMix} {
		for _, w := range mix {
			if w < 0 || math.IsNaN(w) {
				return errf(doc.Src, p.Line, path, "mix weights must not be negative")
			}
		}
	}
	return nil
}

func (doc *Document) validateWeights(m map[string]float64, line int, path string) error {
	for name, w := range m {
		if w < 0 || math.IsNaN(w) {
			return errf(doc.Src, line, path, "%s: weight must not be negative, got %g", name, w)
		}
	}
	return nil
}

// posFinite reports whether v is a positive finite number. The negations
// below are deliberate: a plain v <= 0 lets NaN through (every comparison
// with NaN is false), and a NaN rate or duration would hang arrival
// compilation.
func posFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

func (doc *Document) validateScenario(sc *Scenario) error {
	src := doc.Src
	if !posFinite(sc.DurationS) {
		return errf(src, 0, "scenario", "duration_s must be positive and finite, got %g", sc.DurationS)
	}
	ids := map[string]bool{}
	for i, c := range sc.Clients {
		path := "scenario.clients[" + strconv.Itoa(i) + "]"
		if c.ID == "" {
			return errf(src, c.Line, path, "client needs an id")
		}
		if ids[c.ID] {
			return errf(src, c.Line, path, "duplicate client id %q", c.ID)
		}
		ids[c.ID] = true
		switch c.SLOClass {
		case "", "besteffort":
		case "latency":
			if !posFinite(c.SLOMs) {
				return errf(src, c.Line, path, "slo_class latency needs a positive slo_ms")
			}
		default:
			return errf(src, c.Line, path, "unknown slo_class %q (want latency or besteffort)", c.SLOClass)
		}
		switch c.Arrival.Process {
		case "", ProcPoisson, ProcConstant:
		case ProcGamma, ProcWeibull:
			if !posFinite(c.Arrival.CV) {
				return errf(src, c.Line, path, "arrival process %q needs a positive cv", c.Arrival.Process)
			}
		default:
			return errf(src, c.Line, path,
				"unknown arrival process %q (want poisson, gamma-bursty, weibull or constant)", c.Arrival.Process)
		}
		if c.Arrival.CV != 0 && !posFinite(c.Arrival.CV) {
			return errf(src, c.Line, path, "arrival cv must be positive and finite, got %g", c.Arrival.CV)
		}
	}
	if sc.Replay != nil {
		if sc.Replay.CSV == "" {
			return errf(src, sc.Replay.Line, "scenario.replay", "replay needs a csv path")
		}
		if len(sc.Clients) == 0 {
			return errf(src, sc.Replay.Line, "scenario.replay", "replay needs clients declaring the trace's client ids")
		}
	} else if len(sc.Clients) > 0 {
		if !posFinite(sc.AggregateRate) {
			return errf(src, 0, "scenario", "aggregate_rate must be positive and finite, got %g", sc.AggregateRate)
		}
		var sum float64
		for i, c := range sc.Clients {
			if !posFinite(c.RateFraction) {
				return errf(src, c.Line, "scenario.clients["+strconv.Itoa(i)+"]",
					"rate_fraction must be positive, got %g", c.RateFraction)
			}
			sum += c.RateFraction
		}
		if math.Abs(sum-1) > 1e-6 {
			return errf(src, 0, "scenario.clients", "rate fractions must sum to 1, got %g", sum)
		}
	}
	if e := sc.Envelope; e != nil {
		path := "scenario.envelope"
		switch e.Kind {
		case "", EnvConstant:
		case EnvDiurnal:
			if !posFinite(e.PeriodS) {
				return errf(src, e.Line, path, "diurnal envelope needs a positive period_s")
			}
			if !(e.Amplitude >= 0 && e.Amplitude < 1) {
				return errf(src, e.Line, path, "diurnal amplitude must be in [0, 1), got %g", e.Amplitude)
			}
		case EnvFlash:
			if !posFinite(e.Factor) {
				return errf(src, e.Line, path, "flash-crowd envelope needs a positive factor")
			}
			if !posFinite(e.DurS) {
				return errf(src, e.Line, path, "flash-crowd envelope needs a positive dur_s")
			}
			if !(e.AtS >= 0) || math.IsInf(e.AtS, 0) {
				return errf(src, e.Line, path, "flash-crowd at_s must not be negative")
			}
		case EnvRamp:
			if !posFinite(e.From) || !posFinite(e.To) {
				return errf(src, e.Line, path, "ramp envelope needs positive from and to")
			}
		default:
			return errf(src, e.Line, path,
				"unknown envelope kind %q (want constant, diurnal, flash-crowd or ramp)", e.Kind)
		}
	}
	if f := sc.Faults; f != nil {
		path := "scenario.faults"
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"put_fail", f.PutFail}, {"insert_fail", f.InsertFail},
			{"session_loss", f.SessionLoss}, {"corrupt", f.Corrupt},
			{"truncate", f.Truncate}, {"stall", f.Stall},
		} {
			if !(c.v >= 0 && c.v <= 1) {
				return errf(src, 0, path, "%s must be a probability in [0, 1], got %g", c.name, c.v)
			}
		}
		if !(f.CrashMTBFS >= 0) || !(f.CrashDowntimeS >= 0) {
			return errf(src, 0, path, "crash timings must not be negative")
		}
	}
	if c := sc.Cluster; c != nil {
		if c.Nodes < 0 || c.CoresPerNode < 0 || c.Replicas < 0 || c.Shards < 0 || c.Requests < 0 {
			return errf(src, 0, "scenario.cluster", "cluster sizes must not be negative")
		}
	}
	return nil
}
