package spec

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// FuzzParseTrace throws arbitrary bytes at the CSV replay parser. It must
// never panic; the rows it accepts have a finite timestamp and a
// non-empty, trimmed client, there are at most maxArrivals of them, and
// written back as "t_ms,client" lines they parse to the same rows.
//
// Run with: go test -fuzz=FuzzParseTrace ./internal/spec
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte("t_ms,client\n0,a\n1.5, b \n\n# comment\n2e3,c,d\n"))
	f.Add([]byte("0,a\nbad\n"))
	data, err := os.ReadFile("builtin/trace.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ParseTrace("fuzz.csv", data)
		if err != nil {
			return
		}
		if len(rows) > maxArrivals {
			t.Fatalf("%d rows accepted, cap %d", len(rows), maxArrivals)
		}
		var out []byte
		for _, r := range rows {
			if math.IsNaN(r.TMS) || math.IsInf(r.TMS, 0) || r.Client == "" || r.Client != strings.TrimSpace(r.Client) {
				t.Fatalf("accepted row %+v", r)
			}
			out = strconv.AppendFloat(out, r.TMS, 'g', -1, 64)
			out = append(out, ',')
			out = append(out, r.Client...)
			out = append(out, '\n')
		}
		again, err := ParseTrace("again.csv", out)
		if err != nil {
			t.Fatalf("rows written back do not parse: %v\n%s", err, out)
		}
		if !slices.Equal(rows, again) {
			t.Fatalf("round trip changed rows:\n%+v\n%+v", rows, again)
		}
	})
}
