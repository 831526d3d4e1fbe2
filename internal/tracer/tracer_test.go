package tracer

import (
	"slices"
	"strings"
	"testing"

	"exist/internal/baselines"
)

// Compile-time compliance table: every implementation New builds
// satisfies Backend, and each capability extension is claimed by exactly
// the backends the harvest logic expects.
var (
	_ Backend = baselines.Oracle{}
	_ Backend = (*baselines.StaSam)(nil)
	_ Backend = (*baselines.EBPF)(nil)
	_ Backend = (*baselines.NHT)(nil)
	_ Backend = (*EXIST)(nil)

	_ SessionBackend = (*baselines.NHT)(nil)
	_ SessionBackend = (*EXIST)(nil)
	_ MSRBackend     = (*baselines.NHT)(nil)
	_ MSRBackend     = (*EXIST)(nil)
	_ ErrBackend     = (*EXIST)(nil)
)

func TestRegistryNames(t *testing.T) {
	want := []string{"EXIST", "NHT", "Oracle", "StaSam", "eBPF"} // sorted
	got := Names()
	if !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	got[0] = "changed"
	if Names()[0] != "EXIST" {
		t.Error("Names() must return a copy")
	}
}

func TestNewResolvesEveryRegisteredName(t *testing.T) {
	for _, name := range Names() {
		b, err := New(name, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b == nil {
			t.Fatalf("New(%q) returned nil backend", name)
		}
		if b.Name() != name {
			t.Errorf("New(%q).Name() = %q; the name New takes and the backend name must agree", name, b.Name())
		}
	}
}

func TestNewUnknownBackend(t *testing.T) {
	_, err := New("no-such-scheme", Options{})
	if err == nil {
		t.Fatal("New on an unknown name must fail")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") || !strings.Contains(err.Error(), "EXIST") {
		t.Errorf("error should name the missing backend and list candidates: %v", err)
	}
}

// NHT is the only baseline that consumes Options; check the wiring.
func TestNHTFactoryOptions(t *testing.T) {
	b, err := New("NHT", Options{Scale: 0.25, FilterTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	n := b.(*baselines.NHT)
	if n.Scale != 0.25 {
		t.Errorf("NHT scale = %v, want 0.25", n.Scale)
	}
	if !n.FilterTarget {
		t.Error("NHT FilterTarget option not wired through")
	}
	b, err = New("NHT", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := b.(*baselines.NHT).Scale; s != 1 {
		t.Errorf("NHT default scale = %v, want 1", s)
	}
}
