// Package decode reconstructs execution flow from PT packet streams — the
// role libipt plays in the paper's pipeline. Given a session's per-core
// packet buffers, the five-tuple context-switch sidecar, and the traced
// program binary, it replays the control-flow graph: silent edges
// (fall-throughs, direct jumps, direct calls) are followed statically,
// conditional branches consume TNT bits, and indirect transfers and
// returns consume TIP payloads. The result carries the aggregate profiles
// (function histogram, categories, memory-access mix) the paper's case
// study reports and, on request (Result.ByThread), per-thread branch
// streams directly comparable to the ground truth.
package decode

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"exist/internal/binary"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/parallel"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Result is a reconstruction of one or more packet streams: the
// aggregate profiles, and for a decoded session its per-thread event
// streams, which ByThread gathers on first use.
type Result struct {
	// FuncEntries is the function occurrence histogram (indirect-call
	// entries, matching trace.GroundTruth's counting rule).
	FuncEntries map[int32]int64
	// CatHits counts every decoded block (including silently-walked ones)
	// by function category — the Figure 21 profile.
	CatHits [binary.NumCategories]int64
	// MemOps accumulates decoded blocks' memory-access counts — the
	// Figure 22 profile.
	MemOps [binary.NumMemClasses][4]int64
	// Blocks is the total number of blocks visited.
	Blocks int64
	// Events is the total number of reconstructed branch events.
	Events int64
	// BytesDecoded counts packet bytes consumed.
	BytesDecoded int64
	// PTWrites holds decoded PTWRITE operands in stream order with their
	// attributed threads (the §6.1 data-flow extension).
	PTWrites []PTWrite
	// Errors lists decode problems (truncation at a stopped buffer is
	// normal; anything else indicates desync).
	Errors []string
	// Resyncs counts mid-stream recoveries: after a desync the decoder
	// scans forward to the next PSB and resumes instead of discarding the
	// rest of the buffer.
	Resyncs int64

	// arena holds every event the session decoded, core by core, in
	// step form; segs index it in execution order. ByThread expands the
	// streams from them against prog once and then drops both.
	prog        *binary.Program
	arena       []step
	segs        []segment
	threadsOnce sync.Once
	threads     map[int32][]trace.Event
}

// PTWrite is one decoded PTWRITE operand.
type PTWrite struct {
	TID int32
	Val uint64
}

// newResult returns an empty result.
func newResult() *Result {
	return &Result{FuncEntries: make(map[int32]int64)}
}

// ByThread returns each thread's reconstructed event stream, in order:
// the session's segments re-serialized by timestamp. The streams are
// gathered on the first call and cached. A merged profile (Merge) has
// none, and callers that only read the aggregates never pay for them.
func (r *Result) ByThread() map[int32][]trace.Event {
	r.threadsOnce.Do(func() {
		counts := make(map[int32]int)
		for _, sg := range r.segs {
			counts[sg.tid] += sg.end - sg.start
		}
		r.threads = make(map[int32][]trace.Event, len(counts))
		for tid, n := range counts {
			r.threads[tid] = make([]trace.Event, 0, n)
		}
		for _, sg := range r.segs {
			evs := r.threads[sg.tid]
			for _, st := range r.arena[sg.start:sg.end] {
				evs = append(evs, st.event(r.prog, sg.tid))
			}
			r.threads[sg.tid] = evs
		}
		r.prog, r.arena, r.segs = nil, nil, nil
	})
	return r.threads
}

// Merge folds other's profile into r: the function histogram, category
// and memory-access profiles and counters add up; Errors and PTWrites
// append. Per-thread streams are not merged: thread IDs are only unique
// within one machine, and the cluster-level merge reads profiles only.
func (r *Result) Merge(other *Result) {
	for fn, n := range other.FuncEntries {
		r.FuncEntries[fn] += n
	}
	for i := range r.CatHits {
		r.CatHits[i] += other.CatHits[i]
	}
	for c := range r.MemOps {
		for w := range r.MemOps[c] {
			r.MemOps[c][w] += other.MemOps[c][w]
		}
	}
	r.PTWrites = append(r.PTWrites, other.PTWrites...)
	r.Blocks += other.Blocks
	r.Events += other.Events
	r.BytesDecoded += other.BytesDecoded
	r.Errors = append(r.Errors, other.Errors...)
	r.Resyncs += other.Resyncs
}

// sidecarIndex resolves schedule-in records per core for thread
// attribution.
type sidecarIndex struct {
	byCore map[int32][]kernel.SwitchRecord
}

func buildSidecar(log *kernel.SwitchLog) *sidecarIndex {
	// Size each per-core slice exactly before filling: schedule-in records
	// dominate the sidecar, and append-regrowth on them shows up in decode
	// allocation profiles.
	counts := make(map[int32]int)
	for i := range log.Records {
		if log.Records[i].Op == kernel.OpIn {
			counts[log.Records[i].CPU]++
		}
	}
	idx := &sidecarIndex{byCore: make(map[int32][]kernel.SwitchRecord, len(counts))}
	for cpu, n := range counts {
		idx.byCore[cpu] = make([]kernel.SwitchRecord, 0, n)
	}
	for i := range log.Records {
		if r := log.Records[i]; r.Op == kernel.OpIn {
			idx.byCore[r.CPU] = append(idx.byCore[r.CPU], r)
		}
	}
	for cpu := range idx.byCore {
		slices.SortFunc(idx.byCore[cpu], func(a, b kernel.SwitchRecord) int {
			return cmp.Compare(a.TS, b.TS)
		})
	}
	return idx
}

// tidAt returns the thread scheduled in on cpu at or before ts.
func (idx *sidecarIndex) tidAt(cpu int, ts simtime.Time) (int32, bool) {
	rs := idx.byCore[int32(cpu)]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].TS > ts })
	if i == 0 {
		return 0, false
	}
	return rs[i-1].TID, true
}

// Decode reconstructs a whole session against its program binary. A
// thread's execution is spread over per-core streams as it migrates; the
// decoder re-serializes each thread's segments by their timestamps so the
// per-thread event order matches execution order. The cores decode on
// trace.CoreWorkers workers; the result does not depend on how many.
func Decode(s *trace.Session, prog *binary.Program) *Result {
	return decodeSession(s, prog, trace.CoreWorkers(s.TotalBytes()))
}

// decodeSession is Decode with the cores decoded on up to workers
// workers.
func decodeSession(s *trace.Session, prog *binary.Program, workers int) *Result {
	return decodeCores(s.Cores, &s.Switches, prog, workers, true)
}

// DecodeStream reconstructs a single core's packet buffer (exported for
// tests and tools). Its segments keep stream order.
func DecodeStream(prog *binary.Program, log *kernel.SwitchLog, core int, data []byte) *Result {
	if log == nil {
		log = &kernel.SwitchLog{}
	}
	return decodeCores([]trace.CoreTrace{{Core: core, Data: data}}, log, prog, 1, false)
}

// step is one decoded event as the arena stores it: the block whose
// terminator transferred control, and for a conditional its direction
// (0 or 1), else the target block. The event's kind is that block's
// terminator and its thread is its segment's, so 8 bytes carry what a
// 16-byte trace.Event does.
type step struct {
	block binary.BlockID
	arg   int32
}

// event expands s into the thread tid's trace.Event.
func (s step) event(prog *binary.Program, tid int32) trace.Event {
	b := &prog.Blocks[s.block]
	ev := trace.Event{TID: tid, Block: s.block, Kind: b.Term, Target: binary.BlockID(s.arg)}
	if b.Term == binary.TermCond {
		ev.Taken = s.arg != 0
		ev.Target = b.Fall
		if ev.Taken {
			ev.Target = b.Taken
		}
	}
	return ev
}

// arenaWindow bounds the events one core's stream of n bytes decodes to.
// Decoded sessions average 0.26-0.31 events per packet byte and single
// streams reach 0.53, so 0.6 per byte leaves every observed stream room;
// a denser one spills (see decodeCores) rather than fails.
func arenaWindow(n int) int { return 1 + n*3/5 }

// decodeCores decodes the given core streams on up to workers workers
// into one result. Each core writes its events into its own window of
// one session arena; ordered stable-sorts the segments by timestamp.
//
// Cores are independent until the fold: each worker counts into a tally
// of its own (the sidecar index is shared read-only), and the tallies are
// integer sums, so they fold in any order. Each core's stream keeps its
// own errors, PTWRITEs and counters, and those fold in core order, so the
// result is the same for any worker count.
func decodeCores(cores []trace.CoreTrace, log *kernel.SwitchLog, prog *binary.Program, workers int, ordered bool) *Result {
	idx := buildSidecar(log)
	streams := make([]stream, len(cores))
	n := 0
	for i := range cores {
		streams[i].off = n
		n += arenaWindow(len(cores[i].Data))
	}
	arena := make([]step, n)

	workers = min(parallel.Workers(workers), max(len(cores), 1))
	tallies := make([]*tally, workers)
	tallies[0] = newTally(prog)
	parallel.ForEachWorker(len(cores), workers, func(w, i int) {
		if tallies[w] == nil {
			tallies[w] = newTally(prog)
		}
		st := &streams[i]
		decodeStream(st, tallies[w], prog, idx, cores[i], arena[st.off:st.off:st.off+arenaWindow(len(cores[i].Data))])
	})
	t := tallies[0]
	for _, o := range tallies[1:] {
		if o != nil {
			t.add(o)
		}
	}
	res := newResult()
	t.flush(res, prog)

	// A stream denser than its window spilled into an array of its own;
	// then the arena is rebuilt exactly, core by core.
	spilled := false
	nsegs := 0
	for i := range streams {
		st := &streams[i]
		res.Events += int64(len(st.events))
		res.BytesDecoded += st.bytes
		res.Resyncs += st.resyncs
		res.Errors = append(res.Errors, st.errors...)
		res.PTWrites = append(res.PTWrites, st.ptwrites...)
		nsegs += len(st.segs)
		spilled = spilled || len(st.events) > arenaWindow(len(cores[i].Data))
	}
	res.prog, res.arena = prog, arena
	if spilled {
		res.arena = make([]step, 0, res.Events)
		for i := range streams {
			streams[i].off = len(res.arena)
			res.arena = append(res.arena, streams[i].events...)
		}
	}
	res.segs = make([]segment, 0, nsegs)
	for i := range streams {
		for _, sg := range streams[i].segs {
			sg.start += streams[i].off
			sg.end += streams[i].off
			res.segs = append(res.segs, sg)
		}
	}
	if ordered {
		slices.SortStableFunc(res.segs, func(a, b segment) int { return cmp.Compare(a.ts, b.ts) })
	}
	return res
}

// tally defers per-visit accounting to one pass per decode. The silent
// walk counts visits per chain start (chains) and its step-by-step
// fallback per block (visits); indirect-call entries count per function
// (funcs). flush expands the chains once per distinct start and folds
// the per-block costs in once per distinct block, instead of 17
// additions per visited block.
type tally struct {
	chains []int64
	visits []int64
	funcs  []int64
}

func newTally(prog *binary.Program) *tally {
	return &tally{
		chains: make([]int64, len(prog.Blocks)),
		visits: make([]int64, len(prog.Blocks)),
		funcs:  make([]int64, len(prog.Funcs)),
	}
}

// add folds another worker's tally into t.
func (t *tally) add(o *tally) {
	for i, n := range o.chains {
		t.chains[i] += n
	}
	for i, n := range o.visits {
		t.visits[i] += n
	}
	for i, n := range o.funcs {
		t.funcs[i] += n
	}
}

// flush folds the tally into res's aggregate profiles.
func (t *tally) flush(res *Result, prog *binary.Program) {
	ends := prog.SilentEnds()
	for start, n := range t.chains {
		if n == 0 {
			continue
		}
		for id := binary.BlockID(start); ; id, _ = prog.Blocks[id].SilentSucc() {
			t.visits[id] += n
			if id == ends[start] {
				break
			}
		}
	}
	for id, n := range t.visits {
		if n == 0 {
			continue
		}
		b := &prog.Blocks[id]
		res.Blocks += n
		res.CatHits[prog.Funcs[b.Func].Category] += n
		for c := 0; c < binary.NumMemClasses; c++ {
			for w := 0; w < 4; w++ {
				res.MemOps[c][w] += n * int64(b.MemOps[c][w])
			}
		}
	}
	for fn, n := range t.funcs {
		if n != 0 {
			res.FuncEntries[int32(fn)] += n
		}
	}
}

// segment is one contiguous traced span on one core, attributed to a
// thread and anchored at its TIP.PGE timestamp. Its events are the
// index range [start, end) of the core's event window, and of the
// session arena once decodeCores rebases it.
type segment struct {
	tid        int32
	ts         simtime.Time
	start, end int
}

// stream is one core's decode: its events and segments, and the parts
// of the result that fold in core order.
type stream struct {
	// off is the start of the core's window in the session arena.
	off      int
	events   []step
	segs     []segment
	errors   []string
	ptwrites []PTWrite
	bytes    int64
	resyncs  int64
}

// silentWalkCap bounds CFG walking between packets; the generator
// guarantees silent edges make forward progress, so this only trips on a
// corrupt stream.
const silentWalkCap = binary.MaxSilentChain

// maxResyncs bounds PSB recoveries per core stream so a thoroughly
// corrupt buffer cannot bloat the error list.
const maxResyncs = 64

// decoder holds per-stream state.
type decoder struct {
	st        *stream
	tally     *tally
	prog      *binary.Program
	silentEnd []binary.BlockID
	entryFunc []int32
	idx       *sidecarIndex
	core      int
	tracing   bool
	cur       binary.BlockID
	curOK     bool
	tid       int32
	lastTSC   simtime.Time
	// seg is the open segment's index in st.segs, or -1.
	seg int
}

// decodeStream decodes one core's packets into st, counting visits into
// t. events is the core's window of the session arena; an append past its
// capacity spills to a new array.
func decodeStream(st *stream, t *tally, prog *binary.Program, idx *sidecarIndex, ct trace.CoreTrace, events []step) {
	st.events = events
	d := &decoder{st: st, tally: t, prog: prog, silentEnd: prog.SilentEnds(), entryFunc: prog.EntryFuncs(),
		idx: idx, core: ct.Core, tid: -1, seg: -1}
	p := ipt.NewParser(ct.Data)
	if ct.Wrapped {
		// Ring-buffer output starts mid-stream: resynchronize at a PSB.
		if !p.Sync() {
			st.errors = append(st.errors, fmt.Sprintf("core %d: wrapped stream has no PSB", ct.Core))
			return
		}
	}
	for {
		pkt, ok, err := p.Next()
		if err != nil {
			// A truncated trailing packet is the normal signature of a
			// compulsory-drop stop; anything mid-stream is a desync.
			st.errors = append(st.errors, fmt.Sprintf("core %d: %v", ct.Core, err))
			// Graceful recovery: scan forward to the next PSB and resume
			// instead of discarding the rest of the buffer. The error
			// position itself can never parse as a full PSB, so Sync always
			// makes progress; the cap keeps Errors bounded on garbage.
			if st.resyncs >= maxResyncs || !p.Sync() {
				break
			}
			st.resyncs++
			d.desync()
			continue
		}
		if !ok {
			break
		}
		d.packet(pkt)
	}
	st.bytes = int64(p.Pos())
	// Close each segment where the next one opens.
	for i := range st.segs {
		if i+1 < len(st.segs) {
			st.segs[i].end = st.segs[i+1].start
		} else {
			st.segs[i].end = len(st.events)
		}
	}
}

// desync resets stream-dependent state after a recovery scan: position
// and enablement are unknown until the next TIP.PGE re-anchors them, so
// the decoder conservatively drops out of tracing rather than emitting
// events from a misaligned stream.
func (d *decoder) desync() {
	d.tracing = false
	d.curOK = false
	d.seg = -1
}

// packet advances the decoder by one packet.
func (d *decoder) packet(pkt ipt.Packet) {
	switch pkt.Kind {
	case ipt.PktTSC:
		d.lastTSC = simtime.Time(pkt.Val)
	case ipt.PktTIPPGE:
		d.tracing = true
		id, ok := d.prog.BlockAt(pkt.Val)
		d.cur, d.curOK = id, ok
		if !ok {
			d.err("TIP.PGE at unknown address %#x", pkt.Val)
		}
		if tid, ok := d.idx.tidAt(d.core, d.lastTSC); ok {
			d.tid = tid
		} else {
			d.tid = -1
		}
		d.openSegment()
	case ipt.PktTIPPGD:
		d.tracing = false
		d.curOK = false
	case ipt.PktTNT:
		if !d.tracing || !d.curOK {
			return
		}
		for i := 0; i < int(pkt.Len); i++ {
			if !d.consumeCond(pkt.TNTBit(i)) {
				return
			}
		}
	case ipt.PktTIP:
		if !d.tracing || !d.curOK {
			return
		}
		d.consumeTIP(pkt.Val)
	case ipt.PktPTW:
		if d.tracing {
			d.st.ptwrites = append(d.st.ptwrites, PTWrite{TID: d.tid, Val: pkt.Val})
		}
	case ipt.PktPSB, ipt.PktPSBEND, ipt.PktMODE, ipt.PktPIP, ipt.PktCYC, ipt.PktPAD, ipt.PktFUP:
		// Stateless for reconstruction purposes (PAD is also the bulk
		// filler of analytic sessions, which are not decodable).
	}
}

// walkSilent advances through non-packet-producing edges until the current
// block's terminator needs trace input. Reports false on desync. A chain
// that reaches such a block is one table lookup; a silent cycle is walked
// block by block, each visit counted, until the cap reports the desync.
func (d *decoder) walkSilent() bool {
	if end := d.silentEnd[d.cur]; end != binary.NoBlock {
		d.tally.chains[d.cur]++
		d.cur = end
		return true
	}
	for steps := 0; steps < silentWalkCap; steps++ {
		d.tally.visits[d.cur]++
		next, silent := d.prog.Blocks[d.cur].SilentSucc()
		if !silent {
			return true
		}
		d.cur = next
	}
	d.err("silent walk did not converge at block %d", d.cur)
	d.curOK = false
	return false
}

// consumeCond walks to the next conditional branch and applies one TNT bit.
func (d *decoder) consumeCond(taken bool) bool {
	if !d.walkSilent() {
		return false
	}
	b := &d.prog.Blocks[d.cur]
	if b.Term != binary.TermCond {
		d.err("TNT bit arrived at non-conditional block %d (%v)", d.cur, b.Term)
		d.curOK = false
		return false
	}
	st := step{block: d.cur}
	d.cur = b.Fall
	if taken {
		st.arg = 1
		d.cur = b.Taken
	}
	d.emit(st)
	return true
}

// consumeTIP walks to the next indirect transfer and applies a TIP target.
func (d *decoder) consumeTIP(ip uint64) {
	if !d.walkSilent() {
		return
	}
	b := &d.prog.Blocks[d.cur]
	switch b.Term {
	case binary.TermIndirectJump, binary.TermIndirectCall, binary.TermReturn:
	default:
		d.err("TIP arrived at block %d with terminator %v", d.cur, b.Term)
		d.curOK = false
		return
	}
	target, ok := d.prog.BlockAt(ip)
	if !ok {
		d.err("TIP to unknown address %#x", ip)
		d.curOK = false
		return
	}
	d.emit(step{block: d.cur, arg: int32(target)})
	// Count function occurrences under the rule trace.GroundTruth uses:
	// indirect-call entries only (returns restarting the service loop
	// would swamp the histogram with the loop head).
	if b.Term == binary.TermIndirectCall {
		if fn := d.entryFunc[target]; fn >= 0 {
			d.tally.funcs[fn]++
		}
	}
	d.cur = target
}

// openSegment starts a segment for the current thread at the last TSC.
func (d *decoder) openSegment() {
	d.seg = len(d.st.segs)
	d.st.segs = append(d.st.segs, segment{tid: d.tid, ts: d.lastTSC, start: len(d.st.events)})
}

// emit records one reconstructed event into the current segment.
func (d *decoder) emit(st step) {
	if d.seg < 0 {
		d.openSegment()
	}
	d.st.events = append(d.st.events, st)
}

// err records a decode problem.
func (d *decoder) err(format string, args ...any) {
	d.st.errors = append(d.st.errors, fmt.Sprintf("core %d: ", d.core)+fmt.Sprintf(format, args...))
}
