package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestBuiltinNames(t *testing.T) {
	want := []string{"diurnal", "flash-crowd", "replay"}
	if got := BuiltinNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BuiltinNames() = %v, want %v", got, want)
	}
}

// TestLoadBuiltins parses every bundled scenario and compiles its arrival
// schedule, so a malformed bundled document fails in tests rather than at
// first use.
func TestLoadBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		doc, err := LoadBuiltin(name)
		if err != nil {
			t.Fatalf("LoadBuiltin(%q): %v", name, err)
		}
		if doc.Name != name {
			t.Errorf("%s: document name %q does not match file name", name, doc.Name)
		}
		if doc.Desc == "" {
			t.Errorf("%s: bundled scenario needs a desc for -list", name)
		}
		if doc.Scenario == nil {
			t.Fatalf("%s: bundled document has no scenario", name)
		}
		arr, err := doc.Scenario.Arrivals(doc.Seed, 1.0/100)
		if err != nil {
			t.Fatalf("%s: Arrivals: %v", name, err)
		}
		if len(arr) == 0 {
			t.Errorf("%s: compiled schedule is empty", name)
		}
		if doc.Scenario.Replay != nil && len(doc.Scenario.Replay.Rows) == 0 {
			t.Errorf("%s: replay trace did not resolve", name)
		}
	}
	if _, err := LoadBuiltin("no-such"); err == nil {
		t.Fatal("expected error for unknown bundled scenario")
	}
}

// TestLoad covers the loader's three outcomes: a document file (its replay
// trace resolved next to it, not in the working directory), a bundled
// scenario name, and neither.
func TestLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "docs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "r.yaml")
	if err := os.WriteFile(file, []byte(`version: 1
name: from-file
scenario:
  duration_s: 1
  clients:
    - id: a
  replay: {csv: trace.csv}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.csv"), []byte("1,a\n2,a\n3,a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, name string
		rows       int
		err        string
	}{
		{path: file, name: "from-file", rows: 3},
		{path: "replay", name: "replay", rows: 242},
		{path: "no-such-scenario", err: `no file "no-such-scenario" and no bundled scenario by that name`},
	} {
		doc, err := Load(tc.path)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("Load(%q) error = %v, want %q", tc.path, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Load(%q): %v", tc.path, err)
		}
		if doc.Name != tc.name {
			t.Errorf("Load(%q) name = %q, want %q", tc.path, doc.Name, tc.name)
		}
		if rows := len(doc.Scenario.Replay.Rows); rows != tc.rows {
			t.Errorf("Load(%q) resolved %d replay rows, want %d", tc.path, rows, tc.rows)
		}
	}
}
