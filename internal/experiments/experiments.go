// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate. Each experiment is a named,
// self-contained runner producing plain-text tables; the per-experiment
// index in DESIGN.md maps experiment IDs to paper artifacts.
//
// Absolute numbers come from a simulator, not the authors' testbed; what
// the runners are built to reproduce is the paper's *shape*: which scheme
// wins, by roughly what factor, and where the crossovers fall. Each
// runner's table notes state the paper's reported values next to ours.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"exist/internal/tabular"
)

// Config parameterizes a run.
type Config struct {
	// Quick shrinks durations and sweep sizes for tests and benchmarks;
	// full runs use the paper's parameters.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Jobs bounds the worker pool for sweep fan-out (<= 0 means
	// GOMAXPROCS, 1 forces serial). Every cell derives its randomness
	// from stable identifiers, so results are identical for any value.
	Jobs int

	// memo shares scheme sweeps between the experiments of one RunAll,
	// by name (nil: every experiment measures everything itself).
	memo *sync.Map
}

// DefaultConfig returns the full-fidelity configuration.
func DefaultConfig() Config { return Config{Seed: 1} }

// Result is one experiment's output.
type Result struct {
	// ID is the experiment ID.
	ID string
	// Tables are the rendered artifacts.
	Tables []*tabular.Table
	// Metrics exposes headline numbers for benchmarks and EXPERIMENTS.md
	// (name -> value).
	Metrics map[string]float64
}

// Metric records a headline number.
func (r *Result) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Render draws all tables.
func (r *Result) Render() string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedMetrics returns metric names in order.
func (r *Result) SortedMetrics() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Experiment is one registered runner.
type Experiment struct {
	// ID is the registry key (fig13, tab04, ...).
	ID string
	// Title describes the paper artifact.
	Title string
	// Paper summarizes what the paper reports (the shape target).
	Paper string
	// Run executes the experiment.
	Run func(cfg Config) (*Result, error)
}

// registry holds all experiments in registration order.
var registry []Experiment

// register adds an experiment at init time.
func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every experiment in registration order.
func All() []Experiment {
	return append([]Experiment(nil), registry...)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (use one of %v)", id, IDs())
}

// IDs lists registered experiment IDs.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	return out
}
