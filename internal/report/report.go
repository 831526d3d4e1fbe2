// Package report synthesizes decoded traces into the human-readable
// application-behaviour summaries EXIST returns to on-call engineers and
// developers (§3.1: "the collected instruction traces are automatically
// synthesized into human-readable application behaviors").
//
// A report combines three inputs: the reconstruction (what executed), the
// program binary (names and categories), and the session (window, sidecar,
// buffer health) — and reads like the output of a profiler that happens to
// know the chronology.
package report

import (
	"fmt"
	"sort"
	"strings"

	"exist/internal/binary"
	"exist/internal/decode"
	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Options controls report contents. The findings use fixed rules: a
// thread whose longest off-CPU gap reaches gapThreshold (100 ms) is
// flagged, and PTWRITE operands are named from
// kernel.DefaultSyscallTable.
type Options struct {
	// TopFuncs bounds the hottest-function list (default 10).
	TopFuncs int
}

// gapThreshold is the off-CPU gap at which a thread is flagged as an
// anomaly.
const gapThreshold = 100 * simtime.Millisecond

// Build renders the behaviour report.
func Build(rec *decode.Result, prog *binary.Program, sess *trace.Session, opt Options) string {
	if opt.TopFuncs <= 0 {
		opt.TopFuncs = 10
	}
	var b strings.Builder
	header(&b, rec, sess)
	hotFunctions(&b, rec, prog, opt.TopFuncs)
	categories(&b, rec)
	memWidths(&b, rec)
	threads(&b, rec, sess)
	anomalies(&b, rec, sess)
	return b.String()
}

func header(b *strings.Builder, rec *decode.Result, sess *trace.Session) {
	fmt.Fprintf(b, "EXIST behaviour report — %s\n", sess.Workload)
	fmt.Fprintf(b, "window: %v starting at %v; %d five-tuple records; %.1f MB trace\n",
		sess.Duration(), sess.Start, len(sess.Switches.Records), sess.SpaceMB())
	stopped := 0
	for _, c := range sess.Cores {
		if c.Stopped {
			stopped++
		}
	}
	fmt.Fprintf(b, "reconstruction: %d control-flow events, %d blocks, %d threads",
		rec.Events, rec.Blocks, len(rec.ByThread()))
	if stopped > 0 {
		fmt.Fprintf(b, " (%d/%d buffers hit the compulsory-drop threshold)", stopped, len(sess.Cores))
	}
	b.WriteString("\n\n")
}

// FuncCount is one function's traced call-entry count.
type FuncCount struct {
	Name string
	N    int64
}

// RankFunctions returns every function with traced call entries, by
// count descending and then by name, so tied counts list in the same
// order on every run.
func RankFunctions(rec *decode.Result, prog *binary.Program) []FuncCount {
	hot := make([]FuncCount, 0, len(rec.FuncEntries))
	for fn, n := range rec.FuncEntries {
		hot = append(hot, FuncCount{prog.Funcs[fn].Name, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].N != hot[j].N {
			return hot[i].N > hot[j].N
		}
		return hot[i].Name < hot[j].Name
	})
	return hot
}

func hotFunctions(b *strings.Builder, rec *decode.Result, prog *binary.Program, top int) {
	hot := RankFunctions(rec, prog)
	var total int64
	for _, f := range hot {
		total += f.N
	}
	if total == 0 {
		return
	}
	b.WriteString("hottest functions (traced call entries):\n")
	for i, f := range hot {
		if i >= top {
			break
		}
		frac := float64(f.N) / float64(total)
		fmt.Fprintf(b, "  %5.1f%% %s %s\n", frac*100, bar(frac, 30), f.Name)
	}
	b.WriteString("\n")
}

func categories(b *strings.Builder, rec *decode.Result) {
	groups := []struct {
		name string
		cats []binary.FuncCategory
	}{
		{"memory", []binary.FuncCategory{binary.CatMemJE, binary.CatMemTC, binary.CatMemAlloc,
			binary.CatMemFree, binary.CatMemCopy, binary.CatMemSet, binary.CatMemCmp, binary.CatMemMove}},
		{"synchronization", []binary.FuncCategory{binary.CatSyncAtomic, binary.CatSyncSpinlock,
			binary.CatSyncMutex, binary.CatSyncCAS}},
		{"kernel", []binary.FuncCategory{binary.CatKernelSche, binary.CatKernelIRQ, binary.CatKernelNet}},
	}
	if rec.Blocks == 0 {
		return
	}
	b.WriteString("costly-category execution share (of visited blocks):\n")
	for _, g := range groups {
		var n int64
		leaders := make([]string, 0, 2)
		var lead int64
		var leadName string
		for _, c := range g.cats {
			n += rec.CatHits[c]
			if rec.CatHits[c] > lead {
				lead, leadName = rec.CatHits[c], c.String()
			}
		}
		frac := float64(n) / float64(rec.Blocks)
		if leadName != "" {
			leaders = append(leaders, fmt.Sprintf("led by %s", leadName))
		}
		fmt.Fprintf(b, "  %-16s %5.1f%% %s\n", g.name, frac*100, strings.Join(leaders, " "))
	}
	b.WriteString("\n")
}

func memWidths(b *strings.Builder, rec *decode.Result) {
	var total int64
	var wide int64
	for cls := 0; cls < binary.NumMemClasses; cls++ {
		for w := 0; w < 4; w++ {
			total += rec.MemOps[cls][w]
		}
		wide += rec.MemOps[cls][3]
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(b, "memory accesses: %d observed, %.0f%% quad-width (8-byte)\n\n",
		total, float64(wide)/float64(total)*100)
}

// Gap is one thread's longest scheduled-out interval in a session window.
type Gap struct {
	TID int32
	// From is when the thread left the CPU.
	From simtime.Time
	// Dur is how long it stayed off (0: the thread has no gap).
	Dur simtime.Duration
}

// LongestGaps returns the longest off-CPU gap of every thread in the
// session's five-tuple sidecar, sorted by TID. A thread that scheduled
// out and never came back is charged up to sess.End: it is still blocked
// when the window closes. Of equal gaps in one thread, the earliest wins.
func LongestGaps(sess *trace.Session) []Gap {
	records := append([]kernel.SwitchRecord(nil), sess.Switches.Records...)
	sort.Slice(records, func(i, j int) bool { return records[i].TS < records[j].TS })
	longest := map[int32]*Gap{}
	lastOut := map[int32]simtime.Time{}
	for _, r := range records {
		g := longest[r.TID]
		if g == nil {
			g = &Gap{TID: r.TID}
			longest[r.TID] = g
		}
		switch r.Op {
		case kernel.OpOut:
			lastOut[r.TID] = r.TS
		case kernel.OpIn:
			if out, ok := lastOut[r.TID]; ok {
				if d := r.TS - out; d > g.Dur {
					g.From, g.Dur = out, d
				}
				delete(lastOut, r.TID)
			}
		}
	}
	for tid, out := range lastOut {
		if g := longest[tid]; sess.End-out > g.Dur {
			g.From, g.Dur = out, sess.End-out
		}
	}
	gaps := make([]Gap, 0, len(longest))
	for _, g := range longest {
		gaps = append(gaps, *g)
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].TID < gaps[j].TID })
	return gaps
}

// Longest returns the longest of gaps (the zero Gap when there are
// none); a tie goes to the lower TID.
func Longest(gaps []Gap) Gap {
	var best Gap
	for i, g := range gaps {
		if i == 0 || g.Dur > best.Dur || g.Dur == best.Dur && g.TID < best.TID {
			best = g
		}
	}
	return best
}

// threadView is per-thread evidence derived from the reconstruction and
// the five-tuple sidecar.
type threadView struct {
	Gap
	events int
}

func threadViews(rec *decode.Result, sess *trace.Session) []threadView {
	events := map[int32]int{}
	for tid, evs := range rec.ByThread() {
		events[tid] = len(evs)
	}
	var views []threadView
	for _, g := range LongestGaps(sess) {
		views = append(views, threadView{Gap: g, events: events[g.TID]})
		delete(events, g.TID)
	}
	for tid, n := range events {
		views = append(views, threadView{Gap: Gap{TID: tid}, events: n})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].TID < views[j].TID })
	return views
}

func threads(b *strings.Builder, rec *decode.Result, sess *trace.Session) {
	views := threadViews(rec, sess)
	if len(views) == 0 {
		return
	}
	b.WriteString("per-thread chronology:\n")
	for _, v := range views {
		if v.TID < 0 {
			fmt.Fprintf(b, "  (unattributed) %8d events\n", v.events)
			continue
		}
		line := fmt.Sprintf("  thread %-4d %8d events", v.TID, v.events)
		if v.Dur > 0 {
			line += fmt.Sprintf(", longest off-CPU gap %v (from %v)", v.Dur, v.From)
		}
		b.WriteString(line + "\n")
	}
	b.WriteString("\n")
}

func anomalies(b *strings.Builder, rec *decode.Result, sess *trace.Session) {
	var notes []string
	for _, v := range threadViews(rec, sess) {
		if v.TID >= 0 && v.Dur >= gapThreshold {
			notes = append(notes, fmt.Sprintf(
				"thread %d left the CPU at %v and stayed away for %v — look for a blocking call",
				v.TID, v.From, v.Dur))
		}
	}
	// PTWRITE operands name the syscalls directly when present.
	counts := map[uint64]int{}
	for _, ptw := range rec.PTWrites {
		counts[ptw.Val]++
	}
	type kv struct {
		val uint64
		n   int
	}
	var ks []kv
	for v, n := range counts {
		ks = append(ks, kv{v, n})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].n > ks[j].n })
	if len(ks) > 0 {
		syscalls := kernel.DefaultSyscallTable()
		parts := make([]string, 0, 4)
		for i, k := range ks {
			if i >= 4 {
				break
			}
			name := fmt.Sprintf("class %d", k.val)
			if int(k.val) < len(syscalls) {
				name = syscalls[k.val].Name
			}
			parts = append(parts, fmt.Sprintf("%s x%d", name, k.n))
		}
		notes = append(notes, "traced syscall activity (PTWRITE): "+strings.Join(parts, ", "))
	}
	for _, e := range rec.Errors {
		if !strings.Contains(e, "truncated") {
			notes = append(notes, "decode: "+e)
		}
	}
	if len(notes) == 0 {
		return
	}
	b.WriteString("findings:\n")
	for _, n := range notes {
		b.WriteString("  - " + n + "\n")
	}
}

// bar renders a proportional ASCII bar.
func bar(frac float64, width int) string {
	n := int(frac*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", width-n) + "]"
}
