package node

import (
	"fmt"

	"exist/internal/spec"
	"exist/internal/workload"
)

// Scenario is a scenario document compiled against the runtime: the
// document's profiles, the traced app and the node placement lowered to a
// Spec. Durations and backends stay with the caller.
type Scenario struct {
	// Profiles are the document's compiled profiles by name.
	Profiles map[string]workload.Profile
	// App is the scenario's traced app (zero without a scenario app).
	App workload.Profile
	// Node is the placement as a Spec (Workload set to App).
	Node Spec
}

// CompileScenario compiles a parsed document. Document profiles compile
// against the built-in table, so bases like "Search1" resolve. The
// scenario app and co-runners resolve document-first, then built-in. A
// document without a scenario section yields only its profiles.
func CompileScenario(doc *spec.Document) (Scenario, error) {
	ctx := map[string]workload.Profile{}
	for _, p := range workload.All() {
		ctx[p.Name] = p
	}
	compiled, err := workload.CompileProfiles(doc, ctx)
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{Profiles: make(map[string]workload.Profile, len(compiled))}
	for _, p := range compiled {
		sc.Profiles[p.Name] = p
	}
	lookup := func(name string) (workload.Profile, error) {
		if p, ok := sc.Profiles[name]; ok {
			return p, nil
		}
		return workload.ByName(name)
	}
	if doc.Scenario == nil {
		return sc, nil
	}
	if name := doc.Scenario.App; name != "" {
		if sc.App, err = lookup(name); err != nil {
			return Scenario{}, fmt.Errorf("%s: scenario app: %w", doc.Src, err)
		}
	}
	if sc.Node, err = specFromPlacement(doc.Scenario.Node, sc.App, lookup); err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", doc.Src, err)
	}
	return sc, nil
}

// specFromPlacement lowers a scenario placement (the DSL's `node` section)
// to a Spec. Co-runner profiles resolve through lookup. Zero placement
// fields keep the Spec zero values, so the node defaults noted on Spec
// still apply.
func specFromPlacement(p *spec.Placement, app workload.Profile, lookup func(string) (workload.Profile, error)) (Spec, error) {
	s := Spec{Workload: app}
	if p == nil {
		return s, nil
	}
	s.Cores = p.Cores
	s.HT = p.HT
	s.Threads = p.Threads
	s.TargetCores = p.TargetCores
	s.Seed = p.Seed
	s.CollectSwitchPeriods = p.CollectSwitchPeriods
	for _, co := range p.CoRunners {
		prof, err := lookup(co.Profile)
		if err != nil {
			return Spec{}, fmt.Errorf("node: co-runner %q: %w", co.Profile, err)
		}
		s.CoRunners = append(s.CoRunners, CoRunner{
			Profile:    prof,
			Cores:      co.Cores,
			SeedOffset: co.SeedOffset,
		})
	}
	return s, nil
}
