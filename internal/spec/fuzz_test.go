package spec

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec throws arbitrary bytes at the document parser. Both
// syntaxes (JSON and the YAML subset) must reject malformed input with a
// positioned error — never a panic, hang, or unbounded allocation. When
// a document does parse, compiling its arrival schedule must stay inside
// the maxArrivals bound, so a hostile rate/duration pair cannot allocate
// past the cap.
//
// Run with: go test -fuzz=FuzzParseSpec ./internal/spec
// The seeds add the two example documents under examples/scenario-dsl;
// the checked-in corpus under testdata/fuzz seeds both syntaxes and the
// whole field surface (profiles, clients, envelopes, replay, faults),
// plus hostile shapes (deep flow nesting, duplicate keys, huge numbers).
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte("version: 1\nname: t\nprofiles:\n  - name: a\n    ipc: 1.5\n"))
	f.Add([]byte(`{"version": 1, "profiles": [{"name": "a"}]}`))
	f.Add([]byte("version: 1\nscenario:\n  duration_s: 1\n  aggregate_rate: 10\n  clients:\n    - id: a\n      rate_fraction: 1\n"))
	// The two example documents between them reach every kind decodeInto
	// walks: pointers, structs, lists, weight maps and every scalar.
	for _, name := range []string{"diurnal.yaml", "replay.yaml"} {
		data, err := os.ReadFile(filepath.Join("../../examples/scenario-dsl", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse("fuzz.yaml", data)
		if err != nil {
			return
		}
		if doc.Scenario == nil {
			return
		}
		events, err := doc.Scenario.Arrivals(doc.Seed, 1)
		if err != nil {
			return
		}
		if len(events) > maxArrivals {
			t.Fatalf("schedule of %d events exceeds the %d cap", len(events), maxArrivals)
		}
	})
}
