package kernel

import "exist/internal/simtime"

// SwitchOp is the operation field of a five-tuple switch record.
type SwitchOp uint8

const (
	// OpIn: the thread was scheduled onto the CPU.
	OpIn SwitchOp = iota
	// OpOut: the thread was scheduled off the CPU.
	OpOut
)

// String returns "in" or "out".
func (o SwitchOp) String() string {
	if o == OpIn {
		return "in"
	}
	return "out"
}

// SwitchRecord is the five-tuple [Timestamp, CPUID, ProcessID, ThreadID,
// Operation] that EXIST's kernel hooker appends at every sched_switch of a
// traced process (§3.3). Records let the decoder attribute per-core packet
// streams to threads, which PT alone cannot do for threads sharing a CR3.
type SwitchRecord struct {
	TS  simtime.Time
	CPU int32
	PID int32
	TID int32
	Op  SwitchOp
}

// RecordSize is the paper's stated per-record footprint: 24 bytes. The
// log's one wire encoding is the session's columnar switch block
// (trace.Marshal); RecordSize prices the log's memory (SizeBytes) and the
// flat session size (trace.V1Size).
const RecordSize = 24

// SwitchLog accumulates five-tuple records for one tracing session.
type SwitchLog struct {
	// Records holds the records in arrival order.
	Records []SwitchRecord
}

// Add appends a record.
func (l *SwitchLog) Add(r SwitchRecord) { l.Records = append(l.Records, r) }

// SizeBytes returns the log's memory footprint.
func (l *SwitchLog) SizeBytes() int64 { return int64(len(l.Records)) * RecordSize }

// HRT is a one-shot high-resolution timer: EXIST's tracing facility arms
// one to bound the tracing period (§3.2), so a hung controller can never
// leave tracers running forever.
type HRT struct {
	ev *simtime.Event
}

// ArmHRT schedules fn at now+d on the engine and returns the timer along
// with the arming cost to charge.
func ArmHRT(eng *simtime.Engine, d simtime.Duration, armCost simtime.Duration, fn func(now simtime.Time)) (*HRT, simtime.Duration) {
	return &HRT{ev: eng.After(d, fn)}, armCost
}

// Cancel disarms the timer if still pending.
func (h *HRT) Cancel() {
	if h.ev != nil {
		h.ev.Cancel()
	}
}

// Pending reports whether the timer is still armed.
func (h *HRT) Pending() bool { return h.ev != nil && h.ev.Pending() }
