package workload

// Golden round-trip test for the spec-compiled built-in fleets: every
// Table 1 and case-study profile, re-expressed in the embedded spec DSL
// documents, must compile deep-equal to the pre-refactor hard-coded
// value. The frozen* constructors below are verbatim copies of the Go
// literals the accessors used to be built from; they exist only here, as
// the fixed point the DSL is checked against.

import (
	"reflect"
	"testing"

	"exist/internal/binary"
	"exist/internal/kernel"
	"exist/internal/sched"
)

func frozenSPEC() []Profile {
	base := func(name, desc string, density float64, ipc float64) Profile {
		return Profile{
			Name: name, Desc: desc, Class: Compute,
			BranchPerKCycle: density, IndirectFrac: 0.10, IPC: ipc,
			MeanCyclesPerSyscall: 120_000_000,
			SyscallClassWeights:  frozenWeights(kernel.SysRead, kernel.SysWrite),
			Threads:              1, Mode: sched.CPUSet, CoresWanted: 1,
			BranchMissPerKInsn: 4, L1MissPerKInsn: 18, LLCMissPerKInsn: 0.9,
			Priority: 3, Funcs: 56, AvgBlockCycles: 22,
			MemClassMix: [binary.NumMemClasses]float64{0.55, 0.2, 0.25},
			MemWidthMix: [4]float64{0.2, 0.12, 0.38, 0.3},
		}
	}
	pb := base("pb", "Perl interpreter", 42, 1.6)
	pb.BranchMissPerKInsn = 6
	gcc := base("gcc", "GNU C compiler", 64, 1.2)
	gcc.BranchMissPerKInsn = 7
	mcf := base("mcf", "Route planning", 46, 0.6)
	mcf.LLCMissPerKInsn = 6
	om := base("om", "Discrete Event simulation", 52, 0.8)
	om.LLCMissPerKInsn = 4
	xa := base("xa", "XML to HTML conversion", 56, 1.4)
	x264 := base("x264", "Video compression", 24, 2.0)
	de := base("de", "Alpha-beta tree search", 36, 1.5)
	le := base("le", "Monte Carlo tree search", 30, 1.3)
	ex := base("ex", "Recursive solution generator", 20, 2.2)
	xz := base("xz", "General data compression", 45, 1.1)
	xz.Threads = 4
	xz.CoresWanted = 4
	xz.MeanCyclesPerSyscall = 40_000_000
	return []Profile{pb, gcc, mcf, om, xa, x264, de, le, ex, xz}
}

func frozenOnline() []Profile {
	mc := Profile{
		Name: "mc", Desc: "In-memory cache (Memcached + Memtier, 10 clients, 1:1 set/get)",
		Class:           Online,
		BranchPerKCycle: 44, IndirectFrac: 0.10, IPC: 1.0,
		MeanCyclesPerSyscall: 75_000,
		SyscallClassWeights:  frozenWeightMap(kernel.SysNetRecv, 4, kernel.SysNetSend, 4, kernel.SysPoll, 1, kernel.SysFutex, 1),
		Threads:              4, Mode: sched.CPUShare, CoresWanted: 0,
		BranchMissPerKInsn: 8, L1MissPerKInsn: 30, LLCMissPerKInsn: 5,
		Priority: 6, Funcs: 48, AvgBlockCycles: 23,
		CategoryMix: frozenMix(binary.CatMemAlloc, 2, binary.CatMemCmp, 2, binary.CatSyncAtomic, 1, binary.CatKernelNet, 3),
		MemClassMix: [binary.NumMemClasses]float64{0.5, 0.25, 0.25},
		MemWidthMix: [4]float64{0.3, 0.15, 0.3, 0.25},
	}
	ng := mc
	ng.Name, ng.Desc = "ng", "Web server (Nginx + ab, 10 clients, 20K requests, 20B files)"
	ng.BranchPerKCycle, ng.MeanCyclesPerSyscall = 40, 60_000
	ng.Threads = 4
	ng.CategoryMix = frozenMix(binary.CatKernelNet, 4, binary.CatMemCopy, 2, binary.CatSyncSpinlock, 1)
	ms := mc
	ms.Name, ms.Desc = "ms", "Online database (MySQL + Sysbench, ten 1M-row tables)"
	ms.BranchPerKCycle, ms.MeanCyclesPerSyscall = 52, 110_000
	ms.Threads = 8
	ms.SyscallClassWeights = frozenWeightMap(kernel.SysRead, 3, kernel.SysWrite, 2, kernel.SysFutex, 4, kernel.SysPoll, 1)
	ms.CategoryMix = frozenMix(binary.CatSyncMutex, 3, binary.CatSyncCAS, 1, binary.CatMemAlloc, 2, binary.CatMemCmp, 2)
	ms.LLCMissPerKInsn = 7
	return []Profile{mc, ng, ms}
}

func frozenCloud() []Profile {
	search1 := Profile{
		Name: "Search1", Desc: "Latency-sensitive CPU-set search engine (Havenask)",
		Class:           Cloud,
		BranchPerKCycle: 48, IndirectFrac: 0.11, IPC: 1.2,
		MeanCyclesPerSyscall: 220_000,
		SyscallClassWeights:  frozenWeightMap(kernel.SysNetRecv, 3, kernel.SysNetSend, 2, kernel.SysFutex, 2, kernel.SysRead, 1),
		Threads:              8, Mode: sched.CPUSet, CoresWanted: 8,
		BranchMissPerKInsn: 6, L1MissPerKInsn: 24, LLCMissPerKInsn: 3,
		Priority: 9, PastIssues: 4, Funcs: 96, AvgBlockCycles: 21,
		CategoryMix: frozenMix(binary.CatMemCmp, 3, binary.CatMemAlloc, 2, binary.CatSyncAtomic, 2, binary.CatKernelNet, 2),
		MemClassMix: [binary.NumMemClasses]float64{0.6, 0.15, 0.25},
		MemWidthMix: [4]float64{0.25, 0.15, 0.35, 0.25},
	}
	search2 := search1
	search2.Name, search2.Desc = "Search2", "Latency-sensitive CPU-share search engine (Havenask)"
	search2.Mode, search2.CoresWanted = sched.CPUShare, 0
	search2.Threads = 12
	cache := Profile{
		Name: "Cache", Desc: "Best-effort memory graph caching (iGraph)",
		Class:           Cloud,
		BranchPerKCycle: 38, IndirectFrac: 0.09, IPC: 0.9,
		MeanCyclesPerSyscall: 150_000,
		SyscallClassWeights:  frozenWeightMap(kernel.SysNetRecv, 3, kernel.SysNetSend, 3, kernel.SysRead, 1),
		Threads:              6, Mode: sched.CPUShare, CoresWanted: 0,
		BranchMissPerKInsn: 7, L1MissPerKInsn: 34, LLCMissPerKInsn: 8,
		Priority: 4, PastIssues: 2, Funcs: 72, AvgBlockCycles: 26,
		CategoryMix: frozenMix(binary.CatMemJE, 3, binary.CatMemCopy, 2, binary.CatMemCmp, 2, binary.CatKernelNet, 2),
		MemClassMix: [binary.NumMemClasses]float64{0.55, 0.25, 0.2},
		MemWidthMix: [4]float64{0.28, 0.16, 0.32, 0.24},
	}
	pred := Profile{
		Name: "Pred", Desc: "ML click-through-rate prediction (RTP engine)",
		Class:           Cloud,
		BranchPerKCycle: 30, IndirectFrac: 0.12, IPC: 1.8,
		MeanCyclesPerSyscall: 400_000,
		SyscallClassWeights:  frozenWeightMap(kernel.SysNetRecv, 2, kernel.SysNetSend, 2, kernel.SysFutex, 3),
		Threads:              8, Mode: sched.CPUShare, CoresWanted: 0,
		BranchMissPerKInsn: 3, L1MissPerKInsn: 20, LLCMissPerKInsn: 4,
		Priority: 8, PastIssues: 3, Funcs: 80, AvgBlockCycles: 30,
		CategoryMix: frozenMix(binary.CatMemCopy, 3, binary.CatMemSet, 2, binary.CatSyncMutex, 2, binary.CatKernelIRQ, 2, binary.CatMemTC, 2),
		MemClassMix: [binary.NumMemClasses]float64{0.5, 0.3, 0.2},
		MemWidthMix: [4]float64{0.05, 0.05, 0.2, 0.7},
	}
	agent := Profile{
		Name: "Agent", Desc: "Node-level SLO management daemon",
		Class:           Cloud,
		BranchPerKCycle: 34, IndirectFrac: 0.10, IPC: 1.1,
		MeanCyclesPerSyscall: 90_000,
		SyscallClassWeights:  frozenWeightMap(kernel.SysRead, 3, kernel.SysWrite, 2, kernel.SysNanosleep, 2, kernel.SysPoll, 2),
		Threads:              2, Mode: sched.CPUShare, CoresWanted: 0,
		BranchMissPerKInsn: 5, L1MissPerKInsn: 22, LLCMissPerKInsn: 2,
		Priority: 5, PastIssues: 1, Funcs: 40, AvgBlockCycles: 24,
		CategoryMix: frozenMix(binary.CatKernelSche, 3, binary.CatSyncMutex, 1, binary.CatMemAlloc, 1),
		MemClassMix: [binary.NumMemClasses]float64{0.6, 0.2, 0.2},
		MemWidthMix: [4]float64{0.3, 0.2, 0.3, 0.2},
	}
	return []Profile{search1, search2, cache, pred, agent}
}

func frozenCaseStudy() []Profile {
	apps := frozenCloud()
	search := apps[0]
	search.Name = "Search"
	cache := apps[2]
	pred := apps[3]
	pred.Name = "Prediction"

	matching := Profile{
		Name: "Matching", Desc: "AI-powered matching (BE engine)",
		Class:           Cloud,
		BranchPerKCycle: 34, IndirectFrac: 0.12, IPC: 1.6,
		MeanCyclesPerSyscall: 300_000,
		SyscallClassWeights:  frozenWeightMap(kernel.SysNetRecv, 2, kernel.SysNetSend, 2, kernel.SysFutex, 2),
		Threads:              8, Mode: sched.CPUShare, CoresWanted: 0,
		BranchMissPerKInsn: 4, L1MissPerKInsn: 22, LLCMissPerKInsn: 4,
		Priority: 7, PastIssues: 2, Funcs: 88, AvgBlockCycles: 28,
		CategoryMix: frozenMix(binary.CatMemCopy, 3, binary.CatMemSet, 1, binary.CatSyncMutex, 2, binary.CatKernelIRQ, 1, binary.CatMemTC, 1),
		MemClassMix: [binary.NumMemClasses]float64{0.45, 0.35, 0.2},
		MemWidthMix: [4]float64{0.08, 0.07, 0.2, 0.65},
	}
	recommend := Profile{
		Name: "Recommend", Desc: "AI-powered recommendation (MVAP)",
		Class:           Cloud,
		BranchPerKCycle: 32, IndirectFrac: 0.12, IPC: 1.7,
		MeanCyclesPerSyscall: 250_000,
		SyscallClassWeights:  frozenWeightMap(kernel.SysNetRecv, 2, kernel.SysNetSend, 1, kernel.SysFutex, 4, kernel.SysWrite, 1),
		Threads:              16, Mode: sched.CPUShare, CoresWanted: 0,
		BranchMissPerKInsn: 4, L1MissPerKInsn: 24, LLCMissPerKInsn: 4,
		Priority: 8, PastIssues: 5, Funcs: 100, AvgBlockCycles: 26,
		CategoryMix: frozenMix(binary.CatKernelIRQ, 4, binary.CatSyncMutex, 3, binary.CatMemCopy, 2, binary.CatMemTC, 1, binary.CatSyncAtomic, 1),
		MemClassMix: [binary.NumMemClasses]float64{0.45, 0.3, 0.25},
		MemWidthMix: [4]float64{0.05, 0.05, 0.2, 0.7},
	}
	return []Profile{search, cache, pred, matching, recommend}
}

func frozenWeights(classes ...kernel.SyscallClass) []float64 {
	max := kernel.SyscallClass(0)
	for _, c := range classes {
		if c > max {
			max = c
		}
	}
	out := make([]float64, int(max)+1)
	for _, c := range classes {
		out[c] = 1
	}
	return out
}

func frozenWeightMap(pairs ...any) []float64 {
	var out []float64
	for i := 0; i < len(pairs); i += 2 {
		c := pairs[i].(kernel.SyscallClass)
		w := float64(pairs[i+1].(int))
		for int(c) >= len(out) {
			out = append(out, 0)
		}
		out[c] = w
	}
	return out
}

func frozenMix(pairs ...any) [binary.NumCategories]float64 {
	var out [binary.NumCategories]float64
	for i := 0; i < len(pairs); i += 2 {
		out[pairs[i].(binary.FuncCategory)] = float64(pairs[i+1].(int))
	}
	return out
}

func TestCompiledBuiltinsMatchFrozenLiterals(t *testing.T) {
	groups := []struct {
		name   string
		frozen []Profile
		got    []Profile
	}{
		{"SPEC", frozenSPEC(), SPEC()},
		{"OnlineBenchmarks", frozenOnline(), OnlineBenchmarks()},
		{"CloudApps", frozenCloud(), CloudApps()},
		{"CaseStudyApps", frozenCaseStudy(), CaseStudyApps()},
	}
	for _, g := range groups {
		if len(g.got) != len(g.frozen) {
			t.Fatalf("%s: got %d profiles, frozen has %d", g.name, len(g.got), len(g.frozen))
		}
		for i, want := range g.frozen {
			got := g.got[i]
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s[%d] (%s): compiled profile differs from frozen literal\n got: %+v\nwant: %+v",
					g.name, i, want.Name, got, want)
			}
		}
	}
}
