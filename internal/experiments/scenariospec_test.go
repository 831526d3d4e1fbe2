package experiments

import (
	"reflect"
	"testing"

	"exist/internal/node"
	"exist/internal/workload"
)

// TestFigureSpecsMatchFrozenLiterals pins the compiled per-figure node
// arrangements to the hard-coded node.Spec literals the motivation
// experiments used before the placements moved into scenario documents.
// The experiments overwrite Dur (quick/full mode) and runCells supplies
// Backend/Seed/Timeslice, so the comparison covers everything a document
// controls.
func TestFigureSpecsMatchFrozenLiterals(t *testing.T) {
	byName := func(name string) workload.Profile {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		return p
	}
	om, xz, ms, mc := byName("om"), byName("xz"), byName("ms"), byName("mc")
	cores := []int{0, 1, 2, 3}

	frozen := map[string]struct {
		app  workload.Profile
		spec node.Spec
	}{
		"fig03a": {om, node.Spec{
			Workload: om, Cores: 8, TargetCores: cores, Seed: 301, Threads: 4,
			CoRunners: []node.CoRunner{{Profile: xz, Cores: cores, SeedOffset: 0}},
		}},
		"fig04": {om, node.Spec{
			Workload: om, Cores: 8, TargetCores: cores, Seed: 401, Threads: 4,
			CoRunners: []node.CoRunner{
				{Profile: xz, Cores: cores, SeedOffset: 0},
				{Profile: ms, Cores: cores, SeedOffset: 101},
			},
		}},
		"fig05": {ms, node.Spec{
			Workload: ms, Cores: 16, TargetCores: cores, Seed: 501, Threads: 4,
			CoRunners: []node.CoRunner{{Profile: om, SeedOffset: 0}},
		}},
		"fig08": {mc, node.Spec{
			Workload: mc, Cores: 8, Seed: 801, CollectSwitchPeriods: true,
			CoRunners: []node.CoRunner{{Profile: ms, SeedOffset: 0}},
		}},
	}
	for name, want := range frozen {
		app, ns, err := figureSpec(name)
		if err != nil {
			t.Fatalf("figureSpec(%q): %v", name, err)
		}
		if !reflect.DeepEqual(app, want.app) {
			t.Errorf("%s: app profile differs from frozen literal", name)
		}
		if !reflect.DeepEqual(ns, want.spec) {
			t.Errorf("%s: compiled node spec differs from frozen literal:\n got %+v\nwant %+v", name, ns, want.spec)
		}
	}
}

// TestFigureSpecUnknown keeps the loader's error path honest.
func TestFigureSpecUnknown(t *testing.T) {
	if _, _, err := figureSpec("fig99"); err == nil {
		t.Fatal("expected error for unknown figure scenario")
	}
}
