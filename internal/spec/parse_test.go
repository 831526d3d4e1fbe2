package spec

import (
	"strings"
	"testing"
)

// TestParseYAMLDocument exercises the YAML-subset features the embedded
// and example documents rely on: nested maps, block lists with inline
// maps, flow lists and maps, comments, quoted strings, underscore digit
// separators, and bare scalars containing flow punctuation.
func TestParseYAMLDocument(t *testing.T) {
	doc, err := Parse("t.yaml", []byte(`# leading comment
version: 1
name: demo
desc: A demo (with, commas) and: trailing punctuation
seed: 12_345
profiles:
  - name: base
    abstract: true
    class: online
    ipc: 1.5
    syscalls: {read: 1, write: 2.5}
    mem_class_mix: [0.5, 0.25, 0.25]
  - name: child
    base: base
    desc: "quoted: value # not a comment"
    threads: 8 # trailing comment
scenario:
  duration_s: 2
  aggregate_rate: 100
  app: child
  clients:
    - id: web
      rate_fraction: 0.75
      slo_class: latency
      slo_ms: 10
      arrival: {process: gamma-bursty, cv: 2}
    - id: batch
      rate_fraction: 0.25
  envelope:
    kind: diurnal
    period_s: 1
    amplitude: 0.5
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if doc.Version != 1 || doc.Name != "demo" || doc.Seed != 12345 {
		t.Errorf("header = %d %q %d", doc.Version, doc.Name, doc.Seed)
	}
	if want := "A demo (with, commas) and: trailing punctuation"; doc.Desc != want {
		t.Errorf("desc = %q, want %q", doc.Desc, want)
	}
	if len(doc.Profiles) != 2 {
		t.Fatalf("profiles = %d, want 2", len(doc.Profiles))
	}
	base := doc.Profiles[0]
	if !base.Abstract || base.Class != "online" || *base.IPC != 1.5 {
		t.Errorf("base = %+v", base)
	}
	if base.Syscalls["write"] != 2.5 || len(base.MemClassMix) != 3 {
		t.Errorf("base maps = %v %v", base.Syscalls, base.MemClassMix)
	}
	child := doc.Profiles[1]
	if child.Base != "base" || *child.Threads != 8 {
		t.Errorf("child = %+v", child)
	}
	if want := "quoted: value # not a comment"; child.Desc != want {
		t.Errorf("child desc = %q", child.Desc)
	}
	sc := doc.Scenario
	if sc == nil || len(sc.Clients) != 2 {
		t.Fatalf("scenario = %+v", sc)
	}
	if sc.Clients[0].Arrival.Process != ProcGamma || sc.Clients[0].Arrival.CV != 2 {
		t.Errorf("client arrival = %+v", sc.Clients[0].Arrival)
	}
	if sc.Envelope.Kind != EnvDiurnal || sc.Envelope.Amplitude != 0.5 {
		t.Errorf("envelope = %+v", sc.Envelope)
	}
}

// TestParseJSONDocument checks the JSON path produces the same document
// as the equivalent YAML.
func TestParseJSONDocument(t *testing.T) {
	y, err := Parse("t.yaml", []byte(`version: 1
name: j
profiles:
  - name: p
    ipc: 2
    syscalls: {read: 1}
`))
	if err != nil {
		t.Fatalf("yaml: %v", err)
	}
	j, err := Parse("t.json", []byte(`{
  "version": 1,
  "name": "j",
  "profiles": [{"name": "p", "ipc": 2, "syscalls": {"read": 1}}]
}`))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if j.Name != y.Name || len(j.Profiles) != len(y.Profiles) ||
		*j.Profiles[0].IPC != *y.Profiles[0].IPC ||
		j.Profiles[0].Syscalls["read"] != y.Profiles[0].Syscalls["read"] {
		t.Errorf("json %+v != yaml %+v", j, y)
	}
}

// TestParseErrors is the table of malformed inputs; each must fail with
// an error naming the offending position or field, never panic.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"tab indent", "version: 1\nprofiles:\n\t- name: x\n", "tab"},
		{"unterminated quote", "version: 1\nname: \"oops\n", "unterminated string"},
		{"unterminated flow list", "version: 1\nprofiles: [\n", "unterminated"},
		{"duplicate yaml key", "version: 1\nname: a\nname: b\n", "duplicate key"},
		{"duplicate json key", `{"version": 1, "name": "a", "name": "b"}`, "duplicate key"},
		{"json trailing garbage", `{"version": 1} {}`, "trailing"},
		{"list under scalar", "version: 1\nname:\n  nope: 1\n", ""},
		{"unknown top field", "version: 1\nprofile:\n  - name: x\n", `unknown field "profile" (did you mean "profiles"?)`},
		{"unknown profile field", "version: 1\nprofiles:\n  - name: x\n    trheads: 2\n", `did you mean "threads"?`},
		{"string where number", "version: 1\nprofiles:\n  - name: x\n    ipc: fast\n", "expected a number"},
		{"field path", "version: 1\nprofiles:\n  - name: x\n    ipc: fast\n", "profiles[0].ipc: expected a number"},
		{"float where int", "version: 1\nprofiles:\n  - name: x\n    threads: 1.5\n", "expected an integer"},
		{"negative seed", "version: 1\nseed: -3\n", "unsigned"},
		{"profiles not list", "version: 1\nprofiles: 3\n", "expected a list"},
		{"syscalls not map", "version: 1\nprofiles:\n  - name: x\n    syscalls: 3\n", "mapping"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("bad.yaml", []byte(c.in))
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", c.in)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want substring %q", err, c.want)
			}
		})
	}
}

// TestParseErrorHasLine checks errors carry usable source positions.
func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("pos.yaml", []byte("version: 1\nprofiles:\n  - name: x\n    bogus: 2\n"))
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "pos.yaml:4") {
		t.Errorf("error %q does not name pos.yaml:4", err)
	}
}
