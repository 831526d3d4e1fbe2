// Package obs renders counters that are declared once, as struct tags.
//
// A stats field carries `obs:"name,unit"`, or `obs:"-"` when it is not a
// counter (a slice of samples, say). Counters walks a tagged struct in
// field order, and Write prints one "name value unit" line per counter, so
// every program shows a counter under the same name.
package obs

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// Counter is one tagged field's reading: Name is the prefix plus the
// tag's name ("cluster.syncs"), Unit the tag's unit ("count", "ns", "MB").
type Counter struct {
	Name, Unit string
	Value      float64
}

// Text formats the value to 15 significant digits, so integers below 1e15
// print every digit and float sums drop the rounding noise of their last bits.
func (c Counter) Text() string { return strconv.FormatFloat(c.Value, 'g', 15, 64) }

// Counters reads the tagged fields of v, a struct or a pointer to one, in
// declaration order, skipping fields with no tag or "-". A tagged field
// that is not an int, int64 (simtime.Duration included) or float64 panics.
func Counters(prefix string, v any) []Counter {
	rv := reflect.Indirect(reflect.ValueOf(v))
	var out []Counter
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		name, unit, _ := strings.Cut(f.Tag.Get("obs"), ",")
		if name == "" || name == "-" {
			continue
		}
		c := Counter{Name: prefix + name, Unit: unit}
		switch fv := rv.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			c.Value = float64(fv.Int())
		case reflect.Float64:
			c.Value = fv.Float()
		default:
			panic(fmt.Sprintf("obs: %s.%s: unsupported kind %s", rv.Type(), f.Name, fv.Kind()))
		}
		out = append(out, c)
	}
	return out
}

// Write prints v's counters to w, one "indent name value unit" line each.
func Write(w io.Writer, indent, prefix string, v any) {
	for _, c := range Counters(prefix, v) {
		fmt.Fprintf(w, "%s%s %s %s\n", indent, c.Name, c.Text(), c.Unit)
	}
}
