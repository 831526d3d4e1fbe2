package spec

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// bundled holds the named scenarios shipped with the binary: ready-made
// documents for smoke tests, demos and the scenario experiment. Traces
// referenced by bundled documents (replay CSVs) are embedded alongside
// them and resolved automatically by LoadBuiltin.
//
//go:embed builtin/*.yaml builtin/*.csv
var bundled embed.FS

// BuiltinNames lists the bundled scenario names in sorted order.
func BuiltinNames() []string {
	entries, err := bundled.ReadDir("builtin")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".yaml"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// LoadBuiltin parses a bundled scenario by name, resolving any replay
// trace against the embedded files.
func LoadBuiltin(name string) (*Document, error) {
	path := "builtin/" + name + ".yaml"
	data, err := bundled.ReadFile(path)
	if err != nil {
		return nil, errf(path, 0, "", "no bundled scenario %q (have: %s)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	doc, err := Parse(path, data)
	if err != nil {
		return nil, err
	}
	if err := doc.ResolveReplay(func(p string) ([]byte, error) {
		return bundled.ReadFile("builtin/" + p)
	}); err != nil {
		return nil, err
	}
	return doc, nil
}

// Load reads the scenario document at path, resolving any replay trace
// relative to the document's directory. When no file exists at path, it
// is taken as the name of a bundled scenario instead.
func Load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		doc, err := LoadBuiltin(path)
		if err != nil {
			return nil, fmt.Errorf("no file %q and no bundled scenario by that name", path)
		}
		return doc, nil
	}
	if err != nil {
		return nil, err
	}
	doc, err := Parse(path, data)
	if err != nil {
		return nil, err
	}
	if err := doc.ResolveReplay(func(p string) ([]byte, error) {
		return os.ReadFile(filepath.Join(filepath.Dir(path), p))
	}); err != nil {
		return nil, err
	}
	return doc, nil
}
