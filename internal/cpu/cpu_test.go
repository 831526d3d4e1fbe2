package cpu

import (
	"testing"

	"exist/internal/simtime"
)

func TestCyclesToNSRoundTrip(t *testing.T) {
	m := Default()
	for _, cycles := range []int64{0, 1, 1000, 2900000, 1 << 40} {
		ns := m.CyclesToNS(cycles)
		back := m.NSToCycles(ns)
		// Truncating to whole nanoseconds can lose up to one clock period
		// (~3 cycles at 2.9 GHz) plus float rounding at large magnitudes.
		diff := cycles - back
		tol := int64(4)
		if rel := cycles / 1_000_000; rel > tol {
			tol = rel
		}
		if diff < -tol || diff > tol {
			t.Errorf("round trip %d cycles -> %v -> %d", cycles, ns, back)
		}
	}
}

func TestCyclesToNSFrequency(t *testing.T) {
	m := Default()
	// 2.9e9 cycles at 2.9 GHz is exactly one second.
	got := m.CyclesToNS(2_900_000_000)
	if got != simtime.Second {
		t.Errorf("2.9e9 cycles = %v, want 1s", got)
	}
}

func TestDefaultOrderings(t *testing.T) {
	m := Default()
	if m.MSRWrite <= m.MSRRead {
		t.Error("WRMSR must cost more than RDMSR")
	}
	if m.SampleHandler <= m.Interrupt {
		t.Error("a sampling handler includes more than the bare interrupt")
	}
	if m.SwitchRecord >= m.ContextSwitch {
		t.Error("the 24-byte five-tuple record must be far cheaper than a switch")
	}
	if m.HTShare <= 1 || m.LLCShare <= 1 || m.CoreShare <= 1 {
		t.Error("interference factors must inflate execution")
	}
	if m.PTBranchOverhead <= 0 || m.PTBranchOverhead > 0.05 {
		t.Errorf("PT hardware overhead %v outside the digit-level range", m.PTBranchOverhead)
	}
}

// TestInterferenceFactors pins the order of the factors
// sched.(*Machine).interference multiplies: sharing an HT sibling
// inflates most, then time-sharing a core (which also shares its
// caches), then sharing only the LLC.
func TestInterferenceFactors(t *testing.T) {
	m := Default()
	ht, core, llc := m.HTShare, m.CoreShare*m.LLCShare, m.LLCShare
	// Figure 5: HT sharing hurts most (15.1%), then core (13.7%), then
	// LLC (12.2%) — here as relative inflation ordering.
	if !(ht > core && core > llc && llc > 1.0) {
		t.Errorf("interference ordering violated: HT=%v core=%v llc=%v", ht, core, llc)
	}
}
