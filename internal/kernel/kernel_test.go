package kernel

import (
	"testing"

	"exist/internal/cpu"
	"exist/internal/ipt"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

func TestDefaultSyscallTable(t *testing.T) {
	tbl := DefaultSyscallTable()
	if len(tbl) != int(NumSyscallClasses) {
		t.Fatalf("table has %d entries, want %d", len(tbl), NumSyscallClasses)
	}
	for i, s := range tbl {
		if s.Name == "" {
			t.Errorf("class %d unnamed", i)
		}
		if s.Cost <= 0 {
			t.Errorf("class %d (%s) has non-positive cost", i, s.Name)
		}
		if s.BlockProb < 0 || s.BlockProb > 1 {
			t.Errorf("class %d (%s) block prob %v", i, s.Name, s.BlockProb)
		}
		if s.BlockProb > 0 && s.BlockMean <= 0 {
			t.Errorf("class %d (%s) blocks but has no duration", i, s.Name)
		}
	}
	// The case-study syscall must block for a long time.
	if tbl[SysFileWriteSlow].BlockMean < 100*simtime.Millisecond {
		t.Error("sync-log write should block on the order of hundreds of ms")
	}
}

func TestBlockDuration(t *testing.T) {
	rng := xrand.New(1)
	s := SyscallSpec{BlockMean: 100 * simtime.Microsecond}
	var sum simtime.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := s.BlockDuration(rng)
		if d < 0 {
			t.Fatal("negative block duration")
		}
		sum += d
	}
	mean := float64(sum) / n
	if mean < 90000 || mean > 110000 {
		t.Errorf("mean block duration %vns, want ~100000ns", mean)
	}
	if (SyscallSpec{}).BlockDuration(rng) != 0 {
		t.Error("zero-mean spec should not block")
	}
}

// newConfiguredTracer returns a tracer with output+filter programmed.
func newConfiguredTracer(t *testing.T, bus *MSRBus) *ipt.Tracer {
	t.Helper()
	tr := ipt.NewTracer(0)
	if _, err := bus.ConfigureOutput(tr, ipt.NewToPA(1<<16, false), 0x42); err != nil {
		t.Fatal(err)
	}
	tr.ContextSwitch(0, 0x42, 0x400000)
	return tr
}

func TestMSRBusEnableDisable(t *testing.T) {
	bus := NewMSRBus(cpu.Default())
	tr := newConfiguredTracer(t, bus)
	opsAfterConfig := bus.Ops

	d, err := bus.Enable(10, tr, ipt.DefaultCtl())
	if err != nil || d != bus.Cost.MSRWrite {
		t.Fatalf("Enable: d=%v err=%v", d, err)
	}
	if !tr.Enabled() {
		t.Fatal("tracer not enabled")
	}
	d, err = bus.Disable(20, tr)
	if err != nil || d != bus.Cost.MSRWrite {
		t.Fatalf("Disable: d=%v err=%v", d, err)
	}
	if tr.Enabled() {
		t.Fatal("tracer still enabled")
	}
	if bus.Ops != opsAfterConfig+2 {
		t.Fatalf("ops = %d, want %d", bus.Ops, opsAfterConfig+2)
	}
	if bus.Errors != 0 {
		t.Fatalf("unexpected MSR errors: %d", bus.Errors)
	}
}

func TestMSRBusSwapOutputCostsThreeWritesPlusConfig(t *testing.T) {
	bus := NewMSRBus(cpu.Default())
	tr := newConfiguredTracer(t, bus)
	if _, err := bus.Enable(0, tr, ipt.DefaultCtl()); err != nil {
		t.Fatal(err)
	}
	opsBefore := bus.Ops
	d, err := bus.SwapOutput(10, tr, ipt.NewToPA(1<<16, false), 0x43)
	if err != nil {
		t.Fatal(err)
	}
	// disable + output + cr3 + enable = 4 writes; the point is it is
	// several serializing MSR operations, not one.
	writes := bus.Ops - opsBefore
	if writes != 4 {
		t.Fatalf("SwapOutput issued %d writes, want 4", writes)
	}
	if d != simtime.Duration(writes)*bus.Cost.MSRWrite {
		t.Fatalf("SwapOutput cost %v, want %v", d, simtime.Duration(writes)*bus.Cost.MSRWrite)
	}
	if !tr.Enabled() {
		t.Fatal("tracer must be re-enabled after swap")
	}
}

func TestMSRBusFaultCounting(t *testing.T) {
	bus := NewMSRBus(cpu.Default())
	tr := newConfiguredTracer(t, bus)
	if _, err := bus.Enable(0, tr, ipt.DefaultCtl()); err != nil {
		t.Fatal(err)
	}
	// Direct reconfiguration while enabled must fault and be counted.
	if _, err := bus.ConfigureOutput(tr, ipt.NewToPA(8, false), 0x99); err == nil {
		t.Fatal("ConfigureOutput on enabled tracer must fault")
	}
	if bus.Errors == 0 {
		t.Fatal("fault not counted")
	}
}

func TestHRT(t *testing.T) {
	eng := simtime.NewEngine()
	fired := simtime.Time(-1)
	h, cost := ArmHRT(eng, 500*simtime.Microsecond, 300, func(now simtime.Time) { fired = now })
	if cost != 300 {
		t.Fatalf("arm cost = %v, want 300", cost)
	}
	if !h.Pending() {
		t.Fatal("timer should be pending")
	}
	eng.Run()
	if fired != 500*simtime.Microsecond {
		t.Fatalf("fired at %v, want 500µs", fired)
	}
	if h.Pending() {
		t.Fatal("timer should have fired")
	}
}

func TestHRTCancel(t *testing.T) {
	eng := simtime.NewEngine()
	fired := false
	h, _ := ArmHRT(eng, 100, 0, func(simtime.Time) { fired = true })
	h.Cancel()
	eng.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}
