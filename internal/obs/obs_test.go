package obs_test

import (
	"reflect"
	"strings"
	"testing"

	"exist/internal/cluster"
	"exist/internal/core"
	"exist/internal/faults"
	"exist/internal/obs"
	"exist/internal/sched"
	"exist/internal/simtime"
)

// statsTypes are the tagged stats types, each under the prefix its
// programs print it with.
var statsTypes = []struct {
	prefix string
	v      any
}{
	{"faults.", faults.Stats{}},
	{"cluster.", cluster.MgmtStats{}},
	{"cluster.", cluster.UploadStats{}},
	{"core.", core.Stats{}},
	{"sched.", sched.MachineStats{}},
	{"sched.target.", sched.ThreadStats{}},
}

// TestStatsTagged checks that every exported field of every stats type
// declares its name and unit once, as an obs tag: a field added without
// one, a tag without a unit, or a name used twice under one prefix fails.
func TestStatsTagged(t *testing.T) {
	seen := map[string]string{}
	for _, st := range statsTypes {
		typ := reflect.TypeOf(st.v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("obs")
			if !ok {
				t.Errorf("%s.%s: no obs tag", typ, f.Name)
				continue
			}
			if tag == "-" {
				continue
			}
			name, unit, _ := strings.Cut(tag, ",")
			if name == "" || unit == "" {
				t.Errorf("%s.%s: tag %q wants \"name,unit\"", typ, f.Name, tag)
				continue
			}
			full := st.prefix + name
			if prev, dup := seen[full]; dup {
				t.Errorf("%s.%s: name %q already names %s", typ, f.Name, full, prev)
			}
			seen[full] = typ.String() + "." + f.Name
		}
		// Every tagged kind is one Counters reads.
		obs.Counters(st.prefix, st.v)
	}
}

func TestCounters(t *testing.T) {
	type sample struct {
		B     int64            `obs:"b,count"`
		A     int              `obs:"a,count"`
		D     simtime.Duration `obs:"d,ns"`
		F     float64          `obs:"f,MB"`
		Skip  []float64        `obs:"-"`
		Plain int64
	}
	tenth := 0.1 // a variable, so 0.1+0.2 carries float64 rounding noise
	v := sample{B: 1 << 40, A: -3, D: 1500 * simtime.Microsecond, F: tenth + 0.2, Skip: []float64{1}, Plain: 9}
	got := obs.Counters("x.", &v)
	want := []obs.Counter{
		{Name: "x.b", Unit: "count", Value: 1 << 40},
		{Name: "x.a", Unit: "count", Value: -3},
		{Name: "x.d", Unit: "ns", Value: 1_500_000},
		{Name: "x.f", Unit: "MB", Value: tenth + 0.2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Counters = %+v, want %+v", got, want)
	}
	var b strings.Builder
	obs.Write(&b, "  ", "x.", v)
	const text = "  x.b 1099511627776 count\n  x.a -3 count\n  x.d 1500000 ns\n  x.f 0.3 MB\n"
	if b.String() != text {
		t.Fatalf("Write:\n%s\nwant:\n%s", b.String(), text)
	}
}
