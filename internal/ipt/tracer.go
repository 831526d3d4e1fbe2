package ipt

import (
	"exist/internal/binary"
	"exist/internal/simtime"
)

// psbPeriod is the byte interval between packet stream boundaries, giving
// decoders periodic sync points (hardware default PSB frequency is 2K
// trace bytes; we use 4K as the paper's implementation does).
const psbPeriod = 4096

// Stats counts what a tracer produced and what it cost.
type Stats struct {
	// Bytes and Packets count accepted trace output.
	Bytes   int64
	Packets int64
	// TNTs, TIPs, PSBs break Packets down by headline kind.
	TNTs int64
	TIPs int64
	PSBs int64
	// DroppedEvents counts branch events that arrived after the output
	// stopped (compulsory-drop losses).
	DroppedEvents int64
	// FilteredEvents counts branch events suppressed by the CR3 filter
	// (zero-cost by design — the hardware simply does not trace them).
	FilteredEvents int64
	// Enables and Disables count TraceEn transitions (the costly control
	// operations EXIST minimizes).
	Enables  int64
	Disables int64
}

// Tracer models one logical core's PT engine. All mutation goes through
// the MSR-style interface; illegal operations (reconfiguring while
// TraceEn=1) fault exactly as the hardware manual specifies, because that
// restriction is what makes conventional per-context-switch control
// expensive.
type Tracer struct {
	// CoreID is the owning logical core, for diagnostics.
	CoreID int

	ctl      uint64
	status   uint64
	cr3Match uint64
	out      *ToPA

	curCR3    uint64
	curIP     uint64
	contextOn bool

	tntBits uint8
	tntLen  int
	psbLeft int
	scratch []byte

	// Staged-output state, live only inside EmitBranches: packets are
	// encoded into chunk and flushed to the ToPA in stageFlushBytes
	// pieces, with stageAvail mirroring the buffer's remaining acceptance
	// so status/stat bookkeeping matches the per-packet path exactly.
	chunk       []byte
	stageAvail  int64
	stageFailed bool

	// Stats accumulates output and control counters.
	Stats Stats
}

// stageFlushBytes is the staged-output flush threshold: one ToPA write per
// ~4 KiB of encoded packets instead of one per packet. It matches the PSB
// period so a chunk spans at most two sync points.
const stageFlushBytes = 4096

// NewTracer returns the tracer for a core, disabled and unconfigured.
func NewTracer(coreID int) *Tracer {
	return &Tracer{CoreID: coreID, psbLeft: psbPeriod, scratch: make([]byte, 0, 64)}
}

// Ctl returns the current control MSR value.
func (t *Tracer) Ctl() uint64 { return t.ctl }

// Enabled reports whether TraceEn is set.
func (t *Tracer) Enabled() bool { return t.ctl&CtlTraceEn != 0 }

// ContextOn reports whether the current context passes the CR3 filter.
func (t *Tracer) ContextOn() bool { return t.contextOn }

// Output returns the configured output buffer (nil if unconfigured).
func (t *Tracer) Output() *ToPA { return t.out }

// SetOutput points the tracer at an output buffer. Like programming
// IA32_RTIT_OUTPUT_BASE, it requires tracing to be disabled.
func (t *Tracer) SetOutput(out *ToPA) error {
	if t.Enabled() {
		return ErrTraceActive{Op: "SetOutput"}
	}
	t.out = out
	return nil
}

// SetCR3Match programs the CR3 filter target (IA32_RTIT_CR3_MATCH).
// Requires tracing disabled.
func (t *Tracer) SetCR3Match(cr3 uint64) error {
	if t.Enabled() {
		return ErrTraceActive{Op: "SetCR3Match"}
	}
	t.cr3Match = cr3
	return nil
}

// WriteCtl writes the control MSR. Transitions of TraceEn are the legal
// control operations; changing configuration bits while TraceEn stays set
// faults. Enabling emits the PSB+ header group, and — if the current
// context passes the filter — a TIP.PGE at the current IP. Disabling
// flushes pending TNT bits and emits TIP.PGD.
func (t *Tracer) WriteCtl(now simtime.Time, v uint64) error {
	wasOn := t.Enabled()
	willBeOn := v&CtlTraceEn != 0
	if wasOn && willBeOn && v != t.ctl {
		t.status |= StatusError
		return ErrTraceActive{Op: "WriteCtl(modify)"}
	}
	if willBeOn && !wasOn && t.out == nil {
		t.status |= StatusError
		return ErrTraceActive{Op: "WriteCtl(enable without output)"}
	}
	t.ctl = v
	switch {
	case willBeOn && !wasOn:
		t.Stats.Enables++
		t.status |= StatusTriggerEn
		t.status &^= StatusStopped
		t.psbLeft = psbPeriod
		t.refreshContext()
		t.emitHeader(now)
		if t.contextOn {
			t.emitTIP(PktTIPPGE, t.curIP)
		}
	case !willBeOn && wasOn:
		t.Stats.Disables++
		t.flushTNT()
		if t.contextOn {
			t.emitTIP(PktTIPPGD, t.curIP)
		}
		t.status &^= StatusTriggerEn | StatusContextEn
		t.contextOn = false
	}
	return nil
}

// ContextSwitch tells the tracer the core switched address spaces — the
// hardware-visible part of a context switch. It costs nothing (no MSR
// traffic): the CR3 filter turns packet generation on or off by itself.
// A PIP and a timestamped TIP.PGE are emitted when a filtered-in context
// schedules in, which is what lets the decoder align per-core streams with
// the kernel's five-tuple switch records.
func (t *Tracer) ContextSwitch(now simtime.Time, cr3, ip uint64) {
	t.curCR3, t.curIP = cr3, ip
	if !t.Enabled() {
		return
	}
	was := t.contextOn
	t.refreshContext()
	switch {
	case t.contextOn && !was:
		t.emitRaw(AppendPIP(t.scratch[:0], cr3))
		t.emitRaw(AppendTSC(t.scratch[:0], uint64(now)))
		t.emitTIP(PktTIPPGE, ip)
	case !t.contextOn && was:
		t.flushTNT()
		t.emitTIP(PktTIPPGD, ip)
	case t.contextOn && was:
		// A MOV CR3 emits a PIP even when the value is unchanged — this
		// is what makes same-process thread switches visible in the
		// stream at all. The timestamp lets the decoder re-attribute via
		// the five-tuple sidecar, and the PGE re-anchors the IP (the new
		// thread resumes elsewhere).
		t.flushTNT()
		t.emitRaw(AppendPIP(t.scratch[:0], cr3))
		t.emitRaw(AppendTSC(t.scratch[:0], uint64(now)))
		t.emitTIP(PktTIPPGE, ip)
	}
}

// refreshContext recomputes the CR3 filter decision for the current CR3.
func (t *Tracer) refreshContext() {
	if t.ctl&CtlCR3Filter == 0 {
		t.contextOn = true
	} else {
		t.contextOn = t.curCR3 == t.cr3Match
	}
	if t.contextOn {
		t.status |= StatusContextEn
	} else {
		t.status &^= StatusContextEn
	}
}

// OnBranch feeds one retired control transfer to the tracer: when
// disabled or filtered out it does nothing; when the output buffer has
// stopped it counts the loss. It is the per-event reference that tests
// hold EmitBranches to; only tests call it.
func (t *Tracer) OnBranch(now simtime.Time, ev binary.BranchEvent) {
	if !t.Enabled() || t.ctl&CtlBranchEn == 0 {
		return
	}
	if !t.contextOn {
		t.Stats.FilteredEvents++
		return
	}
	if t.out.Stopped() {
		t.Stats.DroppedEvents++
		return
	}
	t.curIP = ev.To
	if ev.Kind == binary.TermCond {
		if ev.Taken {
			t.tntBits |= 1 << uint(t.tntLen)
		}
		t.tntLen++
		if t.tntLen == 6 {
			t.flushTNT()
		}
		return
	}
	// Indirect transfer: order is TNT flush, optional CYC, then TIP.
	t.flushTNT()
	if t.ctl&CtlCYCEn != 0 {
		t.emitRaw(AppendCYC(t.scratch[:0], 16))
	}
	t.emitTIP(PktTIP, ev.To)
}

// EmitBranches feeds a batch of retired control transfers to the tracer.
// It implements binary.BranchSink, so a walker hands the tracer its
// batches directly, and it is the one batched encode entry. pack holds the
// batch's conditional directions bit-packed in event order (bit i is the
// i-th TermCond event's direction), so runs of conditionals are consumed
// six directions at a time straight into TNT packets. It is byte- and
// stat-equivalent to calling OnBranch per event, but encodes packets into
// a staging chunk and writes the chunk to the output buffer in
// stageFlushBytes pieces (and once at batch end) instead of issuing one
// ToPA write per packet. The buffer's remaining acceptance is tracked ahead
// of the writes, so when output stops mid-batch the stored/dropped split,
// Stats attribution, and status bits land on exactly the byte the
// per-packet path would produce. No staged bytes survive the call: between
// calls the tracer and its ToPA are in the same state as ever.
func (t *Tracer) EmitBranches(evs []binary.BranchEvent, pack *binary.TNTPack) {
	if !t.Enabled() || t.ctl&CtlBranchEn == 0 {
		return
	}
	if !t.contextOn {
		t.Stats.FilteredEvents += int64(len(evs))
		return
	}
	if t.out.Stopped() {
		t.Stats.DroppedEvents += int64(len(evs))
		return
	}
	t.stageAvail = t.out.Remaining()
	t.stageFailed = false
	t.chunk = t.chunk[:0]
	cyc := t.ctl&CtlCYCEn != 0
	n := len(evs)
	ci := 0 // pack cursor: conditional directions consumed so far
	i := 0
	for i < n {
		if t.stageFailed {
			// The per-packet path re-checks out.Stopped() before every
			// event; a failed staged write is that same boundary.
			t.Stats.DroppedEvents += int64(n - i)
			break
		}
		ev := &evs[i]
		if ev.Kind == binary.TermCond {
			j := i + 1
			for j < n && evs[j].Kind == binary.TermCond {
				j++
			}
			done := t.stageTNTRun(pack, ci, j-i)
			ci += done
			i += done
			t.curIP = evs[i-1].To
			continue
		}
		t.curIP = ev.To
		// Indirect transfer: order is TNT flush, optional CYC, then TIP.
		t.stageTNT()
		if cyc {
			p := len(t.chunk)
			t.chunk = AppendCYC(t.chunk, 16)
			t.stagePkt(p)
		}
		p := len(t.chunk)
		t.chunk = AppendTIP(t.chunk, PktTIP, ev.To)
		t.stagePkt(p)
		t.Stats.TIPs++
		if len(t.chunk) >= stageFlushBytes {
			t.flushStage()
		}
		i++
	}
	t.flushStage()
}

// stageTNTRun folds run packed conditional directions (starting at pack
// bit at) into TNT packets: pending bits from earlier events complete
// their packet first, then whole six-bit packets peel straight off the
// pack. It returns the number of directions consumed — the full run
// unless a staged write fails, in which case consumption stops with the
// event whose direction completed the failing packet, matching the
// per-event path's drop boundary.
func (t *Tracer) stageTNTRun(pack *binary.TNTPack, at, run int) int {
	done := 0
	for done < run {
		k := 6 - t.tntLen
		if k > run-done {
			k = run - done
		}
		t.tntBits |= uint8(pack.Slice(at+done, k)) << uint(t.tntLen)
		t.tntLen += k
		done += k
		if t.tntLen == 6 {
			t.stageTNT()
			if t.stageFailed {
				return done
			}
		}
	}
	return run
}

// stageTNT stages any buffered TNT bits as one short TNT packet (the
// staged twin of flushTNT).
func (t *Tracer) stageTNT() {
	if t.tntLen == 0 {
		return
	}
	p := len(t.chunk)
	t.chunk = AppendTNT(t.chunk, t.tntBits, t.tntLen)
	t.stagePkt(p)
	t.Stats.TNTs++
	t.tntBits, t.tntLen = 0, 0
}

// stagePkt performs emitRaw's bookkeeping for the packet staged at
// chunk[prev:]: packet/byte counting, PSB insertion, and the stop
// transition, all against the pre-computed remaining acceptance instead of
// a live write.
func (t *Tracer) stagePkt(prev int) {
	n := len(t.chunk) - prev
	t.Stats.Packets++
	t.Stats.Bytes += int64(n)
	if int64(n) > t.stageAvail {
		// The per-packet write would come up short here: ToPA stores the
		// prefix that fits (the chunk flush reproduces that split) and the
		// tracer records the stop.
		t.stageAvail = 0
		t.stageFailed = true
		t.status |= StatusStopped
		return
	}
	t.stageAvail -= int64(n)
	t.psbLeft -= n
	if t.psbLeft <= 0 {
		t.psbLeft = psbPeriod
		p := len(t.chunk)
		t.chunk = AppendPSBEND(AppendPSB(t.chunk))
		pn := int64(len(t.chunk) - p)
		if pn > t.stageAvail {
			t.stageAvail = 0
			t.stageFailed = true
			t.status |= StatusStopped
			return
		}
		t.stageAvail -= pn
		t.Stats.PSBs++
		t.Stats.Bytes += pn
	}
}

// flushStage writes the staged chunk to the output buffer in one call.
func (t *Tracer) flushStage() {
	if len(t.chunk) == 0 {
		return
	}
	t.out.Write(t.chunk)
	t.chunk = t.chunk[:0]
}

// Flush drains pending TNT bits without changing trace state; the kernel
// calls it before reading out a window.
func (t *Tracer) Flush() { t.flushTNT() }

// PTWrite models a PTWRITE instruction retiring on the core: an 8-byte
// operand enters the trace stream (the data-flow enhancement of §6.1).
// Requires CtlPTWEn; filtered and dropped under the same rules as
// branches.
func (t *Tracer) PTWrite(now simtime.Time, val uint64) {
	if !t.Enabled() || t.ctl&CtlPTWEn == 0 {
		return
	}
	if !t.contextOn {
		t.Stats.FilteredEvents++
		return
	}
	if t.out == nil || t.out.Stopped() {
		t.Stats.DroppedEvents++
		return
	}
	t.flushTNT()
	t.emitRaw(AppendPTW(t.scratch[:0], val))
}

// SwapOutputHot models the §6.1 "hot switching" hardware extension: the
// output buffer is repointed atomically while tracing stays enabled — one
// register write instead of the disable/reprogram/enable sequence. Pending
// TNT bits are flushed to the old buffer and a PSB reanchors the new one.
func (t *Tracer) SwapOutputHot(now simtime.Time, out *ToPA) {
	t.flushTNT()
	t.out = out
	if t.Enabled() {
		t.psbLeft = psbPeriod
		t.emitHeader(now)
		if t.contextOn {
			t.emitTIP(PktTIPPGE, t.curIP)
		}
	}
}

// bulkChunk is the presentation granularity of aggregate output: bursts
// are offered to the buffer in chunks this size, and a burst stops being
// presented once the buffer stops, so at most one partial chunk lands in
// the buffer's dropped-byte count.
const bulkChunk = 4096

// OnBulkBranches models a burst of branch activity in aggregate: cond
// conditional and ind indirect transfers are charged at their encoded
// sizes and written as PAD filler (which still parses). Analytic workload
// models use this to exercise buffer occupancy, compulsory drop, and trace
// volume without materializing individual packets. The filler takes the
// buffer's zero-fill fast path: counters move, no bytes do.
func (t *Tracer) OnBulkBranches(now simtime.Time, cond, ind int64) {
	if !t.Enabled() || t.ctl&CtlBranchEn == 0 {
		return
	}
	if !t.contextOn {
		t.Stats.FilteredEvents += cond + ind
		return
	}
	if t.out == nil || t.out.Stopped() {
		t.Stats.DroppedEvents += cond + ind
		return
	}
	perInd := int64(7) // TIP
	if t.ctl&CtlCYCEn != 0 {
		perInd++ // plus CYC
	}
	total := (cond+5)/6 + ind*perInd
	writtenBefore := t.out.Written()
	sent := int64(0)
	for sent < total && !t.out.Stopped() {
		n := total - sent
		if n > bulkChunk {
			n = bulkChunk
		}
		if !t.out.WriteZeros(n) {
			t.status |= StatusStopped
		}
		sent += n
	}
	// accepted is what the buffer actually stored. The lost tail covers both
	// bytes the buffer rejected and bytes never presented once it stopped;
	// event loss is attributed proportionally to it.
	accepted := t.out.Written() - writtenBefore
	if lost := total - accepted; lost > 0 && total > 0 {
		t.Stats.DroppedEvents += (cond + ind) * lost / total
	}
	tnts := (cond + 5) / 6
	// Only accepted bytes count as trace output; the lost tail is already
	// accounted by DroppedEvents (and by the buffer's own counters).
	t.Stats.Bytes += accepted
	t.Stats.Packets += tnts + ind
	t.Stats.TNTs += tnts
	t.Stats.TIPs += ind
	t.psbLeft -= int(total)
	if t.psbLeft <= 0 {
		t.psbLeft = psbPeriod
	}
}

// flushTNT emits any buffered TNT bits as one short TNT packet.
func (t *Tracer) flushTNT() {
	if t.tntLen == 0 {
		return
	}
	t.emitRaw(AppendTNT(t.scratch[:0], t.tntBits, t.tntLen))
	t.Stats.TNTs++
	t.tntBits, t.tntLen = 0, 0
}

// emitHeader writes the PSB+ group: PSB, TSC, PIP, MODE, PSBEND.
func (t *Tracer) emitHeader(now simtime.Time) {
	b := t.scratch[:0]
	b = AppendPSB(b)
	b = AppendTSC(b, uint64(now))
	b = AppendPIP(b, t.curCR3)
	b = AppendMODE(b, 1)
	b = AppendPSBEND(b)
	t.emitRaw(b)
	t.Stats.PSBs++
}

// emitTIP writes a TIP-class packet.
func (t *Tracer) emitTIP(kind PacketKind, ip uint64) {
	t.emitRaw(AppendTIP(t.scratch[:0], kind, ip))
	if kind == PktTIP {
		t.Stats.TIPs++
	}
}

// emitRaw writes encoded bytes to the output, inserting periodic PSBs and
// maintaining status/stat bookkeeping.
func (t *Tracer) emitRaw(b []byte) {
	if t.out == nil {
		return
	}
	n := len(b)
	ok := t.out.Write(b)
	t.Stats.Packets++
	t.Stats.Bytes += int64(n)
	if !ok {
		t.status |= StatusStopped
		return
	}
	t.psbLeft -= n
	if t.psbLeft <= 0 {
		t.psbLeft = psbPeriod
		psb := AppendPSBEND(AppendPSB(t.scratch[:0]))
		if t.out.Write(psb) {
			t.Stats.PSBs++
			t.Stats.Bytes += int64(len(psb))
		} else {
			t.status |= StatusStopped
		}
	}
}
