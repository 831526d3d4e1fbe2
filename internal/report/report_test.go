package report

import (
	"reflect"
	"strings"
	"testing"

	"exist/internal/binary"
	"exist/internal/core"
	"exist/internal/decode"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
	"exist/internal/xrand"
)

// buildSession traces a small walker workload with EXIST and returns all
// report inputs.
func buildSession(t *testing.T) (*decode.Result, *binary.Program, *trace.Session) {
	t.Helper()
	mcfg := sched.DefaultConfig()
	mcfg.Cores = 4
	mcfg.HTSiblings = false
	mcfg.Seed = 5
	mcfg.Timeslice = 500 * simtime.Microsecond
	m := sched.NewMachine(mcfg)
	m.EmitPTWrites = true

	p, err := workload.ByName("mc")
	if err != nil {
		t.Fatal(err)
	}
	prog := p.Synthesize(5)
	proc := p.Install(m, workload.InstallOpts{Walker: true, Scale: trace.SpaceScale, Prog: prog, Seed: 5})
	// One thread that blocks for a long time mid-window, to exercise the
	// findings section.
	w := make([]float64, int(kernel.NumSyscallClasses))
	w[kernel.SysNanosleep] = 1
	m.SpawnThread(proc, sched.NewWalkerExec(prog, xrand.New(9), mcfg.Cost, trace.SpaceScale).
		WithPacing(30*simtime.Millisecond, w))

	m.Run(50 * simtime.Millisecond)
	ctrl := core.NewController(m)
	ccfg := core.DefaultConfig()
	ccfg.Period = 200 * simtime.Millisecond
	ccfg.Scale = trace.SpaceScale
	ccfg.Ctl = ipt.DefaultCtl() | ipt.CtlPTWEn
	ccfg.Seed = 5
	sess, err := ctrl.Trace(proc, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(300 * simtime.Millisecond)
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	return decode.Decode(res, prog), prog, res
}

func TestBuildReport(t *testing.T) {
	rec, prog, sess := buildSession(t)
	out := Build(rec, prog, sess, Options{})
	for _, want := range []string{
		"EXIST behaviour report — mc",
		"window: 200.000ms",
		"hottest functions",
		"costly-category execution share",
		"per-thread chronology",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Some function name from the binary must appear.
	found := false
	for _, f := range prog.Funcs {
		if strings.Contains(out, f.Name) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no function names in report:\n%s", out)
	}
}

func TestReportFindsSyscallActivity(t *testing.T) {
	rec, prog, sess := buildSession(t)
	if len(rec.PTWrites) == 0 {
		t.Skip("no PTWRITEs captured in this window")
	}
	out := Build(rec, prog, sess, Options{})
	if !strings.Contains(out, "traced syscall activity (PTWRITE)") {
		t.Fatalf("PTWRITE findings missing:\n%s", out)
	}
}

func TestReportTopFuncsBound(t *testing.T) {
	rec, prog, sess := buildSession(t)
	out := Build(rec, prog, sess, Options{TopFuncs: 3})
	lines := 0
	inHot := false
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "hottest functions") {
			inHot = true
			continue
		}
		if inHot {
			if strings.TrimSpace(l) == "" {
				break
			}
			lines++
		}
	}
	if lines > 3 {
		t.Fatalf("TopFuncs=3 but %d lines listed", lines)
	}
}

func TestBarRendering(t *testing.T) {
	if got := bar(0, 10); got != "[..........]" {
		t.Fatalf("bar(0) = %q", got)
	}
	if got := bar(1, 10); got != "[##########]" {
		t.Fatalf("bar(1) = %q", got)
	}
	if got := bar(2, 10); got != "[##########]" {
		t.Fatalf("bar(>1) must clamp: %q", got)
	}
	if got := bar(0.5, 10); got != "[#####.....]" {
		t.Fatalf("bar(0.5) = %q", got)
	}
}

func TestEmptyReportInputs(t *testing.T) {
	prog := binary.Synthesize(binary.DefaultSpec("empty", 1))
	rec := decode.DecodeStream(prog, nil, 0, nil)
	sess := &trace.Session{Workload: "empty", Scale: 1}
	out := Build(rec, prog, sess, Options{})
	if !strings.Contains(out, "EXIST behaviour report — empty") {
		t.Fatalf("header missing for empty input:\n%s", out)
	}
}

// TestRankFunctions pins the hottest-function order: count descending,
// ties broken by name, independent of map iteration order.
func TestRankFunctions(t *testing.T) {
	prog := &binary.Program{Funcs: []binary.Func{{Name: "zeta"}, {Name: "alpha"}, {Name: "mid"}, {Name: "beta"}}}
	for _, tc := range []struct {
		name    string
		entries map[int32]int64
		want    []FuncCount
	}{
		{"empty", map[int32]int64{}, []FuncCount{}},
		{"distinct", map[int32]int64{0: 1, 1: 3, 2: 2},
			[]FuncCount{{"alpha", 3}, {"mid", 2}, {"zeta", 1}}},
		{"tied", map[int32]int64{0: 5, 1: 5, 2: 7, 3: 5},
			[]FuncCount{{"mid", 7}, {"alpha", 5}, {"beta", 5}, {"zeta", 5}}},
	} {
		for run := 0; run < 20; run++ {
			got := RankFunctions(&decode.Result{FuncEntries: tc.entries}, prog)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s: RankFunctions = %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// TestReportFlagsLongGaps pins the gap anomaly's boundary: a thread whose
// longest off-CPU gap is exactly gapThreshold is flagged, and one whose
// gap falls a nanosecond short is not.
func TestReportFlagsLongGaps(t *testing.T) {
	prog := binary.Synthesize(binary.DefaultSpec("gaps", 1))
	rec := decode.DecodeStream(prog, nil, 0, nil)
	out := 10 * simtime.Millisecond
	sess := &trace.Session{Workload: "gaps", Scale: 1, End: 200 * simtime.Millisecond}
	for _, r := range []kernel.SwitchRecord{
		{TS: 0, TID: 1, Op: kernel.OpIn},
		{TS: 0, TID: 2, Op: kernel.OpIn},
		{TS: out, TID: 1, Op: kernel.OpOut},
		{TS: out, TID: 2, Op: kernel.OpOut},
		{TS: out + 100*simtime.Millisecond, TID: 1, Op: kernel.OpIn},
		{TS: out + 100*simtime.Millisecond - 1, TID: 2, Op: kernel.OpIn},
	} {
		sess.Switches.Add(r)
	}
	report := Build(rec, prog, sess, Options{})
	if !strings.Contains(report, "thread 1 left the CPU") {
		t.Fatalf("thread 1's 100 ms gap not flagged:\n%s", report)
	}
	if strings.Contains(report, "thread 2 left the CPU") {
		t.Fatalf("thread 2's gap is under 100 ms but flagged:\n%s", report)
	}
}

// TestLongestGapsTieGoesToLowerTID gives two threads equal gaps, the
// higher TID first in the sidecar, plus one thread still off-CPU at the
// window end: the gaps come back sorted by TID and the tie picks the
// lower TID in any input order.
func TestLongestGapsTieGoesToLowerTID(t *testing.T) {
	ms := simtime.Millisecond
	sess := &trace.Session{End: 100 * ms}
	for _, r := range []kernel.SwitchRecord{
		{TS: 0, TID: 9, Op: kernel.OpIn},
		{TS: 10 * ms, TID: 9, Op: kernel.OpOut},
		{TS: 0, TID: 4, Op: kernel.OpIn},
		{TS: 20 * ms, TID: 4, Op: kernel.OpOut},
		{TS: 40 * ms, TID: 9, Op: kernel.OpIn},
		{TS: 50 * ms, TID: 4, Op: kernel.OpIn},
		{TS: 90 * ms, TID: 6, Op: kernel.OpOut},
	} {
		sess.Switches.Add(r)
	}
	want := []Gap{
		{TID: 4, From: 20 * ms, Dur: 30 * ms},
		{TID: 6, From: 90 * ms, Dur: 10 * ms},
		{TID: 9, From: 10 * ms, Dur: 30 * ms},
	}
	gaps := LongestGaps(sess)
	if !reflect.DeepEqual(gaps, want) {
		t.Fatalf("LongestGaps = %+v, want %+v", gaps, want)
	}
	if got := Longest(gaps); got != want[0] {
		t.Fatalf("Longest = %+v, want thread 4's %+v", got, want[0])
	}
	if got := Longest([]Gap{want[2], want[1], want[0]}); got != want[0] {
		t.Fatalf("Longest out of TID order = %+v, want thread 4's %+v", got, want[0])
	}
	if got := Longest(nil); got != (Gap{}) {
		t.Errorf("Longest(nil) = %+v, want the zero Gap", got)
	}
}
