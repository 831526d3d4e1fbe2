package memalloc

import (
	"testing"

	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

func machine(cores int) *sched.Machine {
	cfg := sched.DefaultConfig()
	cfg.Cores = cores
	cfg.HTSiblings = false
	return sched.NewMachine(cfg)
}

func TestCPUSetEqualSplit(t *testing.T) {
	m := machine(8)
	p := m.AddProcess("set", nil, sched.CPUSet, []int{1, 3, 5, 7})
	cfg := DefaultConfig()
	plan := PlanBuffers(m, p, cfg, xrand.New(1))
	if len(plan.Cores) != 4 {
		t.Fatalf("CPU-set must trace the whole MCS, got %d cores", len(plan.Cores))
	}
	per := plan.Cores[0].BufBytes
	for _, cp := range plan.Cores {
		if cp.BufBytes != per {
			t.Fatalf("CPU-set buffers must be equal: %+v", plan.Cores)
		}
	}
	// 500MB / 4 = 125MB, within [4MB, 128MB].
	if per != 125<<20 {
		t.Fatalf("per-core = %d, want 125MB", per)
	}
	if plan.SampleRatio != 1 {
		t.Fatalf("ratio = %v", plan.SampleRatio)
	}
}

func TestCPUSetClampsToMax(t *testing.T) {
	m := machine(4)
	p := m.AddProcess("small", nil, sched.CPUSet, []int{0})
	plan := PlanBuffers(m, p, DefaultConfig(), xrand.New(1))
	// One core: 500MB budget clamps to the 128MB per-core max — the
	// Search1 behaviour in §5.2 ("we can increase the buffer size of each
	// core to the maximized 128 MB").
	if plan.Cores[0].BufBytes != 128<<20 {
		t.Fatalf("buffer = %d, want 128MB cap", plan.Cores[0].BufBytes)
	}
}

func TestCPUSetClampsToMin(t *testing.T) {
	m := machine(128)
	all := m.AllCores()
	p := m.AddProcess("wide", nil, sched.CPUSet, all)
	plan := PlanBuffers(m, p, DefaultConfig(), xrand.New(1))
	// 500MB/128 < 4MB: the minimum wins.
	if plan.Cores[0].BufBytes != 4<<20 {
		t.Fatalf("buffer = %d, want 4MB floor", plan.Cores[0].BufBytes)
	}
}

func TestCPUShareSampling(t *testing.T) {
	m := machine(48)
	p := m.AddProcess("share", nil, sched.CPUShare, m.AllCores())
	cfg := DefaultConfig()
	cfg.SampleRatio = 0.3
	plan := PlanBuffers(m, p, cfg, xrand.New(2))
	want := 14 // 0.3 * 48 rounded
	if len(plan.Cores) != want {
		t.Fatalf("TCS size = %d, want %d", len(plan.Cores), want)
	}
	if plan.SampleRatio < 0.28 || plan.SampleRatio > 0.32 {
		t.Fatalf("achieved ratio = %v", plan.SampleRatio)
	}
	for _, cp := range plan.Cores {
		if cp.BufBytes < cfg.PerCoreMin || cp.BufBytes > cfg.PerCoreMax {
			t.Fatalf("buffer %d outside clamp", cp.BufBytes)
		}
	}
}

func TestCPUShareAutoRatio(t *testing.T) {
	m := machine(96)
	p := m.AddProcess("share", nil, sched.CPUShare, m.AllCores())
	plan := PlanBuffers(m, p, DefaultConfig(), xrand.New(3))
	if len(plan.Cores) == 0 || len(plan.Cores) >= 96 {
		t.Fatalf("auto ratio picked %d cores", len(plan.Cores))
	}
	if plan.TotalBytes > 96*(128<<20) {
		t.Fatalf("total allocation absurd: %d", plan.TotalBytes)
	}
}

func TestCPUSharePrefersRunningCores(t *testing.T) {
	m := machine(16)
	p := m.AddProcess("share", nil, sched.CPUShare, m.AllCores())
	exec := sched.NewAnalyticExec(xrand.New(5), m.Cfg.Cost, 0, nil, 40, 0.2, 1.5)
	th := m.SpawnThread(p, exec)
	m.Run(50 * simtime.Millisecond)
	cfg := DefaultConfig()
	cfg.SampleRatio = 0.25
	plan := PlanBuffers(m, p, cfg, xrand.New(4))
	if lc := th.LastCore(); lc >= 0 && !plan.Has(lc) {
		t.Fatalf("plan %v misses the thread's current core %d", plan.Cores, lc)
	}
}

func TestPlanHas(t *testing.T) {
	p := Plan{Cores: []CorePlan{{Core: 3}, {Core: 7}}}
	if !p.Has(3) || !p.Has(7) || p.Has(5) {
		t.Fatal("Plan.Has wrong")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	m := machine(2)
	p := m.AddProcess("x", nil, sched.CPUSet, []int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero budget")
		}
	}()
	PlanBuffers(m, p, Config{}, xrand.New(1))
}
