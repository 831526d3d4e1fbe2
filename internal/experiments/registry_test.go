package experiments

import (
	"testing"

	"exist/internal/tracer"
)

// Every scheme the experiment tables sweep must resolve through
// tracer.New: SchemeKind's String is the backend name, and a rename on
// either side would silently break the sweeps.
func TestComparisonSchemesResolve(t *testing.T) {
	if len(ComparisonSchemes) == 0 {
		t.Fatal("no comparison schemes defined")
	}
	for _, s := range ComparisonSchemes {
		name := s.String()
		b, err := tracer.New(name, tracer.Options{})
		if err != nil {
			t.Errorf("scheme %q does not resolve through tracer.New: %v", name, err)
			continue
		}
		if b.Name() != name {
			t.Errorf("scheme %q resolves to backend named %q", name, b.Name())
		}
	}
}
