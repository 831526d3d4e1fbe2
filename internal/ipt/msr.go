// Package ipt is a register-accurate software model of Intel Processor
// Trace (IPT): the control and status MSRs, the trace packet formats, the
// Table-of-Physical-Addresses (ToPA) output mechanism as the one region
// per core that EXIST configures (NewToPA), and a per-core tracer engine
// that turns branch events into packet bytes.
//
// The model preserves the two properties EXIST's design hinges on:
//
//  1. Control operations are only legal with tracing disabled — changing
//     any configuration bit or the output buffer while TraceEn=1 faults,
//     so every control action costs disable + modify + enable (§2.3 of the
//     paper). The tracer enforces this and the kernel layer charges the
//     MSR costs.
//  2. Packet encodings are byte-faithful (TNT packs up to six conditional
//     branches per byte, TIPs carry compressed target IPs, PSBs cost 16
//     bytes), so buffer-occupancy and space-overhead results (Table 4)
//     follow from the same arithmetic as on real hardware.
package ipt

import "fmt"

// Control MSR (IA32_RTIT_CTL) bit positions, as specified in Intel SDM
// Vol. 3, chapter 33.
const (
	CtlTraceEn   uint64 = 1 << 0  // master trace enable
	CtlCYCEn     uint64 = 1 << 1  // cycle-accurate packets
	CtlOS        uint64 = 1 << 2  // trace CPL0
	CtlUser      uint64 = 1 << 3  // trace CPL>0
	CtlCR3Filter uint64 = 1 << 7  // filter on IA32_RTIT_CR3_MATCH
	CtlToPA      uint64 = 1 << 8  // ToPA output mechanism
	CtlMTCEn     uint64 = 1 << 9  // mini timestamp counter packets
	CtlTSCEn     uint64 = 1 << 10 // TSC packets
	CtlDisRETC   uint64 = 1 << 11 // disable return compression
	CtlPTWEn     uint64 = 1 << 12 // PTWRITE packets (data-flow extension, §6.1)
	CtlBranchEn  uint64 = 1 << 13 // change-of-flow packets (TNT/TIP)
)

// Status MSR (IA32_RTIT_STATUS) bit positions.
const (
	StatusFilterEn  uint64 = 1 << 0 // IP filtering active
	StatusContextEn uint64 = 1 << 1 // current context is being traced
	StatusTriggerEn uint64 = 1 << 3 // tracing is active
	StatusError     uint64 = 1 << 4 // operational error latched
	StatusStopped   uint64 = 1 << 5 // ToPA STOP region filled
)

// ErrTraceActive is returned when software attempts a control operation
// that the hardware only permits with TraceEn clear. This restriction is
// the root cause of the per-context-switch overhead of conventional
// designs: repointing a buffer or changing a filter costs a full
// disable/modify/enable sequence.
type ErrTraceActive struct {
	// Op names the rejected operation.
	Op string
}

// Error implements the error interface.
func (e ErrTraceActive) Error() string {
	return fmt.Sprintf("ipt: %s requires TraceEn=0 (control with tracing active faults)", e.Op)
}

// DefaultCtl returns the control value EXIST programs (§4 of the paper):
// branch tracing with cycle-accurate packets, TSC on, ToPA output,
// CR3 filtering, user+OS, return compression disabled for robust decode.
func DefaultCtl() uint64 {
	return CtlBranchEn | CtlCYCEn | CtlTSCEn | CtlToPA | CtlCR3Filter |
		CtlOS | CtlUser | CtlDisRETC
}
