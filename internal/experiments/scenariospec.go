package experiments

import (
	"embed"
	"fmt"

	"exist/internal/node"
	"exist/internal/spec"
	"exist/internal/workload"
)

// figureFS holds the named fixed arrangements of the motivation figures,
// expressed as scenario documents: the experiments compile their node
// placements out of the same DSL user-supplied specs go through.
//
//go:embed scenarios/*.yaml
var figureFS embed.FS

// figureSpec loads an embedded per-figure arrangement by name and returns
// the traced app plus the compiled node spec. Durations and schemes stay
// with the experiment; the document records the placement.
func figureSpec(name string) (workload.Profile, node.Spec, error) {
	path := "scenarios/" + name + ".yaml"
	data, err := figureFS.ReadFile(path)
	if err != nil {
		return workload.Profile{}, node.Spec{}, fmt.Errorf("experiments: no embedded scenario %q: %w", name, err)
	}
	doc, err := spec.Parse(path, data)
	if err != nil {
		return workload.Profile{}, node.Spec{}, err
	}
	if doc.Scenario == nil || doc.Scenario.App == "" {
		return workload.Profile{}, node.Spec{}, fmt.Errorf("%s: figure scenario needs an app", path)
	}
	sc, err := node.CompileScenario(doc)
	if err != nil {
		return workload.Profile{}, node.Spec{}, err
	}
	return sc.App, sc.Node, nil
}
