// Package kernel models the thin slice of the operating system that
// intra-service tracing interacts with: the syscall table (costs and
// blocking behaviour), composite MSR control operations with their charged
// costs, high-resolution timers, and the 24-byte five-tuple context-switch
// records EXIST's kernel hooker emits at the sched_switch tracepoint. The
// records have one wire encoding, the session's switch block in package
// trace; this package keeps only the records and their size.
package kernel

import (
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// SyscallClass indexes the syscall table. Workload binaries tag their
// syscall sites with a class (binary.Block.SyscallClass); the scheduler
// looks the class up here to charge kernel time and decide blocking.
type SyscallClass = uint8

// The syscall classes the workload models use.
const (
	SysRead SyscallClass = iota
	SysWrite
	SysNetSend
	SysNetRecv
	SysFutex
	SysPoll
	SysNanosleep
	SysSchedYield
	SysFileWriteSlow // pathological synchronous write blocked on disk (the §5.4 case study)
	NumSyscallClasses
)

// SyscallSpec describes one syscall class.
type SyscallSpec struct {
	// Name is the syscall mnemonic used in decoded reports.
	Name string
	// Cost is the in-kernel service time charged to the core.
	Cost simtime.Duration
	// BlockProb is the probability the caller blocks (I/O wait) instead
	// of returning immediately.
	BlockProb float64
	// BlockMean is the mean block duration when the caller blocks.
	BlockMean simtime.Duration
}

// BlockDuration draws a block duration for one invocation (exponential
// around the mean).
func (s SyscallSpec) BlockDuration(rng *xrand.Rand) simtime.Duration {
	if s.BlockMean <= 0 {
		return 0
	}
	return simtime.Duration(rng.Exp(float64(s.BlockMean)))
}

// DefaultSyscallTable returns the standard class table. Values follow the
// usual Linux magnitudes: fast path syscalls run in a few hundred
// nanoseconds to a couple of microseconds of kernel time; network receive
// and poll block while waiting for traffic; futex blocks under contention.
func DefaultSyscallTable() []SyscallSpec {
	t := make([]SyscallSpec, NumSyscallClasses)
	t[SysRead] = SyscallSpec{Name: "read", Cost: 1200 * simtime.Nanosecond, BlockProb: 0.15, BlockMean: 60 * simtime.Microsecond}
	t[SysWrite] = SyscallSpec{Name: "write", Cost: 1400 * simtime.Nanosecond, BlockProb: 0.05, BlockMean: 80 * simtime.Microsecond}
	t[SysNetSend] = SyscallSpec{Name: "sendto", Cost: 2500 * simtime.Nanosecond, BlockProb: 0.02, BlockMean: 50 * simtime.Microsecond}
	t[SysNetRecv] = SyscallSpec{Name: "recvfrom", Cost: 2200 * simtime.Nanosecond, BlockProb: 0.5, BlockMean: 150 * simtime.Microsecond}
	t[SysFutex] = SyscallSpec{Name: "futex", Cost: 900 * simtime.Nanosecond, BlockProb: 0.35, BlockMean: 40 * simtime.Microsecond}
	t[SysPoll] = SyscallSpec{Name: "epoll_wait", Cost: 1800 * simtime.Nanosecond, BlockProb: 0.6, BlockMean: 200 * simtime.Microsecond}
	t[SysNanosleep] = SyscallSpec{Name: "nanosleep", Cost: 800 * simtime.Nanosecond, BlockProb: 1.0, BlockMean: 2 * simtime.Millisecond}
	t[SysSchedYield] = SyscallSpec{Name: "sched_yield", Cost: 600 * simtime.Nanosecond}
	t[SysFileWriteSlow] = SyscallSpec{Name: "write(sync-log)", Cost: 2 * simtime.Microsecond, BlockProb: 0.9, BlockMean: 900 * simtime.Millisecond}
	return t
}
