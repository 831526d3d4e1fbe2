package spec

import (
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestReferenceCoversSchema checks that examples/scenario-dsl/diurnal.yaml,
// the annotated reference document, names every key the schema declares,
// live or commented out: a field added to spec.go without an example
// there fails here.
func TestReferenceCoversSchema(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenario-dsl/diurnal.yaml")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(typ.Elem())
			return
		case reflect.Struct:
		default:
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key := f.Tag.Get("spec")
			if key == "" || key == ",line" {
				continue
			}
			re := regexp.MustCompile(`(?m)(^[ \t]*(#[ \t]*)?(- )?|[{,][ \t]*)` + regexp.QuoteMeta(key) + `:`)
			if !re.Match(data) {
				t.Errorf("%s.%s: key %q missing from diurnal.yaml", typ.Name(), f.Name, key)
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(Document{}))
	if len(seen) < 10 {
		t.Errorf("walked %d struct types, want every type under Document", len(seen))
	}
}
