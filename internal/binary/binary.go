// Package binary models the program binaries that the simulated hardware
// traces and the software decoder reconstructs.
//
// A Program is a synthetic but structurally realistic binary: a set of
// functions, each a small control-flow graph of basic blocks with
// conditional branches, direct and indirect jumps, calls, returns, and
// syscall sites. Programs stand in for the paper's workloads (SPEC CPU 2017
// binaries, Memcached/Nginx/MySQL, and the Alibaba services): what matters
// for reproducing EXIST is not the computation the blocks perform but the
// *control-flow events* they generate — because those are exactly what
// Intel PT records (TNT bits for conditionals, TIP packets for indirect
// transfers) and what the decoder must re-derive from the binary.
//
// A Walker executes a Program deterministically from a seed, emitting the
// ground-truth branch stream. The same CFG is consulted by the decoder, so
// reconstruction accuracy can be scored exactly.
package binary

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"exist/internal/xrand"
)

// BlockID identifies a basic block within a Program. NoBlock marks an
// absent successor.
type BlockID int32

// NoBlock is the nil BlockID.
const NoBlock BlockID = -1

// TermKind is the kind of instruction that terminates a basic block. The
// kind determines what (if anything) the PT hardware emits when the block
// executes: conditional branches produce TNT bits, indirect transfers and
// returns produce TIP packets, and direct transfers produce nothing
// (the decoder follows them statically).
type TermKind uint8

const (
	// TermFall: the block falls through to its successor (no packet).
	TermFall TermKind = iota
	// TermCond: conditional branch — one TNT bit.
	TermCond
	// TermJump: direct unconditional jump (no packet).
	TermJump
	// TermIndirectJump: e.g. a jump table — one TIP packet.
	TermIndirectJump
	// TermCall: direct call (no packet); pushes a return site.
	TermCall
	// TermIndirectCall: e.g. a virtual call — one TIP packet; pushes a
	// return site.
	TermIndirectCall
	// TermReturn: function return — one TIP packet (return compression
	// disabled, as is typical for decoders that want robust resync).
	TermReturn
	// TermSyscall: the block ends in a syscall instruction; control
	// resumes at the fall-through block after the kernel returns.
	TermSyscall
)

// String returns a short mnemonic for the terminator kind.
func (k TermKind) String() string {
	switch k {
	case TermFall:
		return "fall"
	case TermCond:
		return "jcc"
	case TermJump:
		return "jmp"
	case TermIndirectJump:
		return "jmp*"
	case TermCall:
		return "call"
	case TermIndirectCall:
		return "call*"
	case TermReturn:
		return "ret"
	case TermSyscall:
		return "syscall"
	default:
		return "bad"
	}
}

// FuncCategory classifies a function for the case-study analyses
// (Figures 21 and 22 of the paper): the costly leaf-function categories
// whose occurrence ratios EXIST reports per application.
type FuncCategory uint8

const (
	// CatGeneral is ordinary application logic.
	CatGeneral FuncCategory = iota
	// Memory-operation leaf functions (Figure 21a).
	CatMemJE    // jemalloc allocator paths
	CatMemTC    // tcmalloc allocator paths
	CatMemAlloc // generic malloc
	CatMemFree  // free paths
	CatMemCopy  // memcpy
	CatMemSet   // memset
	CatMemCmp   // memcmp
	CatMemMove  // memmove
	// Synchronization leaf functions (Figure 21b).
	CatSyncAtomic
	CatSyncSpinlock
	CatSyncMutex
	CatSyncCAS
	// Kernel-operation leaf functions (Figure 21c).
	CatKernelSche
	CatKernelIRQ
	CatKernelNet
	numCategories
)

// NumCategories is the number of distinct function categories.
const NumCategories = int(numCategories)

// String returns the label used in the paper's figures.
func (c FuncCategory) String() string {
	switch c {
	case CatGeneral:
		return "GENERAL"
	case CatMemJE:
		return "MEM_JE"
	case CatMemTC:
		return "MEM_TC"
	case CatMemAlloc:
		return "MEM_ALLOC"
	case CatMemFree:
		return "MEM_FREE"
	case CatMemCopy:
		return "MEM_COPY"
	case CatMemSet:
		return "MEM_SET"
	case CatMemCmp:
		return "MEM_CMP"
	case CatMemMove:
		return "MEM_MOVE"
	case CatSyncAtomic:
		return "SYNC_ATOMIC"
	case CatSyncSpinlock:
		return "SYNC_SPINLOCK"
	case CatSyncMutex:
		return "SYNC_MUTEX"
	case CatSyncCAS:
		return "SYNC_CAS"
	case CatKernelSche:
		return "KERNEL_SCHE"
	case CatKernelIRQ:
		return "KERNEL_IRQ"
	case CatKernelNet:
		return "KERNEL_NET"
	default:
		return "BAD"
	}
}

// MemClass classifies a block's memory accesses for the Figure 22
// bandwidth analysis.
type MemClass uint8

const (
	// MemReadOnly blocks only load.
	MemReadOnly MemClass = iota
	// MemWriteOnly blocks only store.
	MemWriteOnly
	// MemReadWrite blocks do both.
	MemReadWrite
	numMemClasses
)

// NumMemClasses is the number of memory access classes.
const NumMemClasses = int(numMemClasses)

// String returns the label used in Figure 22.
func (c MemClass) String() string {
	switch c {
	case MemReadOnly:
		return "Read-Only"
	case MemWriteOnly:
		return "Write-Only"
	case MemReadWrite:
		return "Read-Write"
	default:
		return "BAD"
	}
}

// MemWidths are the access widths (bytes) reported in Figure 22.
var MemWidths = [4]int{1, 2, 4, 8}

// Block is one basic block.
type Block struct {
	// Addr is the block's start address in the synthetic text segment.
	Addr uint64
	// Insns is the number of instructions in the block.
	Insns int32
	// Cycles is the block's base execution cost in core cycles.
	Cycles int32
	// Term is the terminator kind.
	Term TermKind
	// Taken is the target when the terminator transfers control: the
	// branch target for TermCond (when taken), the jump target for
	// TermJump, the callee entry for TermCall. Unused for indirect
	// terminators (see Targets) and returns.
	Taken BlockID
	// Fall is the fall-through successor: the not-taken successor for
	// TermCond, the return site pushed by calls, and the post-syscall
	// resume block. NoBlock for TermReturn and TermJump.
	Fall BlockID
	// TakenProb is the probability a TermCond branch is taken.
	TakenProb float32
	// Targets and TargetW are the candidate targets and weights of an
	// indirect terminator.
	Targets []BlockID
	// TargetW holds the selection weights parallel to Targets.
	TargetW []float32
	// Func is the index of the containing function.
	Func int32
	// SyscallClass selects the simulated syscall for TermSyscall blocks
	// (an index into the kernel package's syscall table).
	SyscallClass uint8
	// MemOps counts memory accesses by [MemClass][width-index] for the
	// Figure 22 analysis.
	MemOps [NumMemClasses][4]uint16
}

// Func is a function: a named entry point with a category.
type Func struct {
	// Name is the symbol name.
	Name string
	// Entry is the function's entry block.
	Entry BlockID
	// Category classifies the function for case-study analyses.
	Category FuncCategory
}

// Program is a synthetic binary.
type Program struct {
	// Name identifies the workload the binary belongs to.
	Name string
	// Blocks is the block table; BlockIDs index it.
	Blocks []Block
	// Funcs is the function table.
	Funcs []Func
	// Entry is the program entry block.
	Entry BlockID
	// TextBase is the load address of the text segment.
	TextBase uint64
	// TextSize is the extent of the synthetic text segment in bytes; it
	// stands in for the binary-size input of RCO's complexity model.
	TextSize uint64

	// The lookup tables are built lazily under sync.Once so a shared
	// *Program may be consumed by concurrent decoders and walkers (the
	// parallel experiment harness does exactly that).
	addrOnce    sync.Once
	addrs       addrIndex
	entryOnce   sync.Once
	entryFunc   []int32
	silentOnce  sync.Once
	silentEnd   []BlockID
	superOnce   sync.Once
	super       []superStep
	weightOnce  sync.Once
	targetTotal []float64
	rateOnce    sync.Once
	branchRate  float64
}

// SilentSucc returns the block a terminator transfers to without
// producing a packet: the fall-through of TermFall and TermSyscall, the
// target of TermJump and TermCall. ok is false for terminators that need
// trace input (conditional and indirect branches, returns).
func (b *Block) SilentSucc() (next BlockID, ok bool) {
	switch b.Term {
	case TermFall, TermSyscall:
		return b.Fall, true
	case TermJump, TermCall:
		return b.Taken, true
	}
	return NoBlock, false
}

// MaxSilentChain bounds a silent chain: a decoder that follows more
// blocks than this without reaching one that needs trace input reports
// the stream as desynchronized.
const MaxSilentChain = 1 << 20

// SilentEnds returns, per block, the block at which a decoder walking
// silent edges (SilentSucc) from it stops: the first block on that path
// whose terminator needs trace input, reached within MaxSilentChain
// blocks. It is NoBlock when the path never reaches one: a silent cycle,
// a longer chain, or an out-of-range successor. The table is built once
// and shared; callers must not modify it.
func (p *Program) SilentEnds() []BlockID {
	p.silentOnce.Do(func() {
		n := len(p.Blocks)
		end := make([]BlockID, n)
		// length is the chain length in blocks, end block included; 0
		// marks a block not yet resolved and -1 one on the current path.
		length := make([]int32, n)
		var path []BlockID
		for i := range p.Blocks {
			if length[i] != 0 {
				continue
			}
			// Follow the path to a resolved block, a terminator that needs
			// trace input, or a block already on the path (a cycle).
			res, l := NoBlock, int32(0)
			for id := BlockID(i); ; {
				if length[id] == -1 {
					break
				}
				if length[id] != 0 {
					res, l = end[id], length[id]
					break
				}
				next, silent := p.Blocks[id].SilentSucc()
				if !silent {
					end[id], length[id] = id, 1
					res, l = id, 1
					break
				}
				length[id] = -1
				path = append(path, id)
				if next < 0 || int(next) >= n {
					break
				}
				id = next
			}
			// Resolve the path back to front. A block that does not converge
			// gets length MaxSilentChain+1, so no block leading into it does.
			for k := len(path) - 1; k >= 0; k-- {
				id := path[k]
				if res != NoBlock && l < MaxSilentChain {
					l++
				} else {
					res, l = NoBlock, MaxSilentChain+1
				}
				end[id], length[id] = res, l
			}
			path = path[:0]
		}
		p.silentEnd = end
	})
	return p.silentEnd
}

// superStep is the fused form of the maximal straight-line block chain
// starting at a block: a run of TermFall/TermJump blocks plus the first
// block whose terminator needs per-visit handling (a branch, call, return,
// or syscall). The walker charges a whole chain with one pre-summed step
// instead of one step per block; the chain's block-level aggregates are
// recovered at Settle time by re-walking it once per distinct chain.
type superStep struct {
	cycles int64   // summed Cycles of the chain's n blocks
	insns  int64   // summed Insns of the chain's n blocks
	last   int64   // Cycles of the final block (budget checks are exact to it)
	end    BlockID // block whose terminator ends the chain; NoBlock when capped
	next   BlockID // resume block when the fusion cap cut a pure fall/jump run
	n      int32
}

// maxFuse caps chain length so pure fall/jump cycles in the CFG cannot
// make construction loop; capped chains resume at next.
const maxFuse = 64

// superSteps builds (once) and returns the per-block fused-chain table.
// Like the lookup indexes, it is built under sync.Once so concurrent
// walkers may share one Program.
func (p *Program) superSteps() []superStep {
	p.superOnce.Do(func() {
		sup := make([]superStep, len(p.Blocks))
		for i := range p.Blocks {
			var st superStep
			id := BlockID(i)
			for {
				b := &p.Blocks[id]
				st.cycles += int64(b.Cycles)
				st.insns += int64(b.Insns)
				st.last = int64(b.Cycles)
				st.n++
				if b.Term != TermFall && b.Term != TermJump {
					st.end = id
					st.next = NoBlock
					break
				}
				succ := b.Fall
				if b.Term == TermJump {
					succ = b.Taken
				}
				if st.n == maxFuse {
					st.end = NoBlock
					st.next = succ
					break
				}
				id = succ
			}
			sup[i] = st
		}
		p.super = sup
	})
	return p.super
}

// BranchPerKCycle returns the static PT event density: PT-visible
// terminators (conditional, indirect jump or call, return) per 1000 block
// cycles, 0 for a program without cycles. Every walker a program drives
// reads it, so it is counted once.
func (p *Program) BranchPerKCycle() float64 {
	p.rateOnce.Do(func() {
		var cycles, ptEvents int64
		for i := range p.Blocks {
			b := &p.Blocks[i]
			cycles += int64(b.Cycles)
			switch b.Term {
			case TermCond, TermIndirectJump, TermIndirectCall, TermReturn:
				ptEvents++
			}
		}
		if cycles > 0 {
			p.branchRate = float64(ptEvents) / float64(cycles) * 1000
		}
	})
	return p.branchRate
}

// BlockAt resolves a text address to the block starting there. When
// several blocks share an address, the highest-numbered one wins.
func (p *Program) BlockAt(addr uint64) (BlockID, bool) {
	p.addrOnce.Do(func() { p.addrs = newAddrIndex(p.Blocks) })
	return p.addrs.lookup(addr)
}

// addrIndex resolves block start addresses without hashing: the distinct
// addresses sorted, plus a bucket table over the address range with about
// one bucket per block, so a lookup is one bucket read and a short scan.
type addrIndex struct {
	base  uint64
	shift uint
	// first[k] is the position of the first address at or above bucket
	// k's lower bound; first has one entry past the last bucket.
	first []int32
	addrs []uint64
	ids   []BlockID // the block at each position
}

func newAddrIndex(blocks []Block) addrIndex {
	var x addrIndex
	if len(blocks) == 0 {
		return x
	}
	// Sort blocks by address, keeping the last block of each address as
	// a map assignment in block order would.
	ids := make([]BlockID, len(blocks))
	for i := range ids {
		ids[i] = BlockID(i)
	}
	slices.SortStableFunc(ids, func(a, b BlockID) int { return cmp.Compare(blocks[a].Addr, blocks[b].Addr) })
	for _, id := range ids {
		a := blocks[id].Addr
		if n := len(x.addrs); n > 0 && x.addrs[n-1] == a {
			x.ids[n-1] = id
			continue
		}
		x.addrs = append(x.addrs, a)
		x.ids = append(x.ids, id)
	}
	x.base = x.addrs[0]
	span := x.addrs[len(x.addrs)-1] - x.base
	for span>>x.shift >= uint64(len(x.addrs)) {
		x.shift++
	}
	nb := int(span>>x.shift) + 1
	x.first = make([]int32, nb+1)
	pos := 0
	for k := 0; k <= nb; k++ {
		for pos < len(x.addrs) && (x.addrs[pos]-x.base)>>x.shift < uint64(k) {
			pos++
		}
		x.first[k] = int32(pos)
	}
	return x
}

func (x *addrIndex) lookup(addr uint64) (BlockID, bool) {
	if addr < x.base || len(x.first) == 0 {
		return NoBlock, false
	}
	k := (addr - x.base) >> x.shift
	if k >= uint64(len(x.first)-1) {
		return NoBlock, false
	}
	for i, end := x.first[k], x.first[k+1]; i < end; i++ {
		if a := x.addrs[i]; a >= addr {
			if a == addr {
				return x.ids[i], true
			}
			break
		}
	}
	return NoBlock, false
}

// EntryFuncOf reports whether block id is some function's entry block,
// and if so which function. Trace consumers use it to build function
// occurrence histograms from branch targets.
func (p *Program) EntryFuncOf(id BlockID) (int32, bool) {
	if id < 0 || int(id) >= len(p.Blocks) {
		return 0, false
	}
	fn := p.EntryFuncs()[id]
	return fn, fn >= 0
}

// EntryFuncs returns, per block, the index of the function whose entry
// it is, or -1. When functions share an entry block, the last one wins.
// The table is built once and shared; callers must not modify it.
func (p *Program) EntryFuncs() []int32 {
	p.entryOnce.Do(func() {
		tab := make([]int32, len(p.Blocks))
		for i := range tab {
			tab[i] = -1
		}
		for i := range p.Funcs {
			if e := p.Funcs[i].Entry; e >= 0 && int(e) < len(tab) {
				tab[e] = int32(i)
			}
		}
		p.entryFunc = tab
	})
	return p.entryFunc
}

// Validate checks structural invariants of the program: every successor is
// a valid block, probabilities are in range, indirect terminators have
// targets, and every function entry is valid. Experiments call this after
// synthesis; it is also the target of property-based tests.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("binary %q: no blocks", p.Name)
	}
	if p.Entry < 0 || int(p.Entry) >= len(p.Blocks) {
		return fmt.Errorf("binary %q: entry %d out of range", p.Name, p.Entry)
	}
	validID := func(id BlockID) bool { return id >= 0 && int(id) < len(p.Blocks) }
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Func < 0 || int(b.Func) >= len(p.Funcs) {
			return fmt.Errorf("binary %q: block %d has bad func %d", p.Name, i, b.Func)
		}
		switch b.Term {
		case TermCond:
			if !validID(b.Taken) || !validID(b.Fall) {
				return fmt.Errorf("binary %q: cond block %d has invalid successors", p.Name, i)
			}
			if b.TakenProb < 0 || b.TakenProb > 1 {
				return fmt.Errorf("binary %q: cond block %d prob %v", p.Name, i, b.TakenProb)
			}
		case TermJump:
			if !validID(b.Taken) {
				return fmt.Errorf("binary %q: jump block %d has invalid target", p.Name, i)
			}
		case TermIndirectJump, TermIndirectCall:
			if len(b.Targets) == 0 || len(b.Targets) != len(b.TargetW) {
				return fmt.Errorf("binary %q: indirect block %d has %d targets, %d weights",
					p.Name, i, len(b.Targets), len(b.TargetW))
			}
			for _, t := range b.Targets {
				if !validID(t) {
					return fmt.Errorf("binary %q: indirect block %d target invalid", p.Name, i)
				}
			}
			if b.Term == TermIndirectCall && !validID(b.Fall) {
				return fmt.Errorf("binary %q: indirect call block %d has no return site", p.Name, i)
			}
		case TermCall:
			if !validID(b.Taken) || !validID(b.Fall) {
				return fmt.Errorf("binary %q: call block %d has invalid successors", p.Name, i)
			}
		case TermReturn:
			// no successors
		case TermFall, TermSyscall:
			if !validID(b.Fall) {
				return fmt.Errorf("binary %q: block %d (%v) has invalid fall", p.Name, i, b.Term)
			}
		default:
			return fmt.Errorf("binary %q: block %d has unknown terminator %d", p.Name, i, b.Term)
		}
		if b.Cycles <= 0 {
			return fmt.Errorf("binary %q: block %d has non-positive cycles", p.Name, i)
		}
	}
	for i, f := range p.Funcs {
		if !validID(f.Entry) {
			return fmt.Errorf("binary %q: func %d (%s) entry invalid", p.Name, i, f.Name)
		}
	}
	return nil
}

// endAddr returns the address of the block's terminating instruction,
// which is the "from" address of the branch it produces.
func (p *Program) endAddr(id BlockID) uint64 {
	b := &p.Blocks[id]
	if b.Insns <= 1 {
		return b.Addr
	}
	return b.Addr + uint64(b.Insns-1)*4
}

// BranchEvent is one control-transfer event in an execution: exactly the
// granularity Intel PT observes.
type BranchEvent struct {
	// Block is the block whose terminator produced the event.
	Block BlockID
	// Target is the destination block.
	Target BlockID
	// From is the address of the transferring instruction.
	From uint64
	// To is the destination address.
	To uint64
	// Kind is the terminator kind that produced the event.
	Kind TermKind
	// Taken reports the direction of a TermCond event.
	Taken bool
}

// StopReason says why a Walker run segment ended.
type StopReason uint8

const (
	// StopBudget: the cycle budget was exhausted mid-execution.
	StopBudget StopReason = iota
	// StopSyscall: the program reached a syscall instruction.
	StopSyscall
)

// Counters accumulates dynamic execution statistics in a Walker.
type Counters struct {
	// Cycles and Insns are totals over all executed blocks.
	Cycles int64
	Insns  int64
	// Branches counts PT-visible control transfers.
	Branches int64
	// CondBranches counts TNT-bit events within Branches.
	CondBranches int64
	// IndirectBranches counts TIP events within Branches.
	IndirectBranches int64
	// Syscalls counts syscall instructions executed.
	Syscalls int64
	// FuncEntries counts entries per function index (function occurrence
	// histogram, the input to Wall's weight-matching accuracy metric).
	FuncEntries map[int32]int64
	// MemOps accumulates the Figure 22 access counts.
	MemOps [NumMemClasses][4]int64
	// CatHits counts executed blocks per function category.
	CatHits [NumCategories]int64
}

// BranchSink receives batches of branch events in execution order,
// together with the batch's conditional directions pre-packed in tnt.
// A batch holds at most branchBatchSize (128) events, so tnt carries at
// most that many directions. Both the slice and the pack are views into
// the walker's internal buffers: they are only valid for the duration of
// the call and must not be retained.
type BranchSink interface {
	EmitBranches(evs []BranchEvent, tnt *TNTPack)
}

// TNTPack carries a batch's conditional-branch directions bit-packed in
// emission order: bit i is the Taken direction of the i-th TermCond event
// in the accompanying batch. Sinks that encode TNT packets consume
// directions straight from the pack instead of re-reading each event.
type TNTPack struct {
	Bits [branchBatchSize / 64]uint64
	N    int
}

// push appends one direction bit.
func (p *TNTPack) push(taken bool) {
	if taken {
		p.Bits[p.N>>6] |= 1 << (uint(p.N) & 63)
	}
	p.N++
}

// Slice returns k direction bits starting at bit index pos, LSB first.
// k must be at most 58 so the extraction never spans more than two words
// partially; callers consume TNT packets (6 bits) at a time.
func (p *TNTPack) Slice(pos, k int) uint64 {
	w := pos >> 6
	off := uint(pos) & 63
	v := p.Bits[w] >> off
	if int(off)+k > 64 {
		v |= p.Bits[w+1] << (64 - off)
	}
	return v & (1<<uint(k) - 1)
}

// funcSink adapts a per-event callback to the batch interface for the
// per-event Walker.Run signature; it has no use for the pack.
type funcSink func(BranchEvent)

func (f funcSink) EmitBranches(evs []BranchEvent, _ *TNTPack) {
	for i := range evs {
		f(evs[i])
	}
}

// branchBatchSize is the walker's emission batch: big enough to amortize
// the per-batch sink dispatch and the tracer's per-batch setup over many
// events, small enough (4 KiB of events) to stay cache-resident.
const branchBatchSize = 128

// Walker executes a Program deterministically from a seed. It is the
// ground-truth execution engine: every control transfer it performs is
// reported to the caller's sink exactly once, in order.
type Walker struct {
	prog  *Program
	rng   *xrand.Rand
	cur   BlockID
	stack []BlockID
	// Count holds the running dynamic statistics. Cycles, Insns and the
	// event counters (Branches, Syscalls, ...) are live after every
	// Run/RunBatch; the per-block aggregates (MemOps, CatHits,
	// FuncEntries) are deferred across runs and folded in by Settle.
	Count Counters

	// batch is the pending emission buffer; events accumulate here and are
	// handed to the sink branchBatchSize at a time. tnt mirrors the
	// batch's conditional directions bit-packed.
	batch    [branchBatchSize]BranchEvent
	batchLen int
	tnt      TNTPack
	// visits/touched and funcVisits/funcTouched defer the per-block and
	// per-function-entry charging of one run: the hot loop records one
	// counter increment per block, and settleCounters multiplies out the
	// per-block costs once per distinct block instead of once per visit.
	// chainVisits/chainTouched do the same per fused chain (superStep):
	// the fast path records one increment per chain execution, and settle
	// re-walks each distinct chain once to charge its member blocks.
	visits       []int64
	touched      []BlockID
	funcVisits   []int64
	funcTouched  []int32
	chainVisits  []int64
	chainTouched []BlockID
}

// maxCallDepth bounds the simulated call stack; deeper direct recursion
// degrades to tail calls, as real stack-limited programs effectively do.
const maxCallDepth = 128

// NewWalker returns a walker positioned at the program entry.
func NewWalker(p *Program, rng *xrand.Rand) *Walker {
	return &Walker{
		prog: p,
		rng:  rng,
		cur:  p.Entry,
	}
}

// Current returns the block the walker will execute next.
func (w *Walker) Current() BlockID { return w.cur }

// CurrentAddr returns the address of the next block to execute.
func (w *Walker) CurrentAddr() uint64 { return w.prog.Blocks[w.cur].Addr }

// Run executes blocks until the cycle budget is consumed or a syscall
// instruction is reached, whichever comes first. Each control transfer is
// passed to emit (which may be nil for counting-only runs). It returns the
// cycles actually consumed, the stop reason, and — for StopSyscall — the
// syscall class of the trapping block.
//
// The cycle accounting is inclusive: the block containing the syscall is
// fully executed (and charged) before the walker stops.
//
// Run is the per-event compatibility wrapper over RunBatch; emit receives
// the same events in the same order, delivered batch by batch.
func (w *Walker) Run(budget int64, emit func(BranchEvent)) (used int64, reason StopReason, syscallClass uint8) {
	if emit == nil {
		return w.RunBatch(budget, nil)
	}
	return w.RunBatch(budget, funcSink(emit))
}

// RunBatch is the batched fast path of Run: control-transfer events
// accumulate in a fixed-size internal batch and are handed to sink
// branchBatchSize at a time (and once more at segment end), so the hot
// loop pays one dynamic dispatch per batch instead of one closure call
// per event. sink may be nil for counting-only runs. Cycles, Insns and
// the event counters are live when RunBatch returns; the per-block
// aggregates stay deferred until Settle.
func (w *Walker) RunBatch(budget int64, sink BranchSink) (used int64, reason StopReason, syscallClass uint8) {
	p := w.prog
	if w.visits == nil {
		w.visits = make([]int64, len(p.Blocks))
		w.funcVisits = make([]int64, len(p.Funcs))
		w.chainVisits = make([]int64, len(p.Blocks))
	}
	sup := p.superSteps()
	totals := p.targetTotals()
	blocks := p.Blocks
	var insns int64
	for used < budget {
		id := w.cur
		st := &sup[id]
		if used+st.cycles-st.last < budget {
			// Fast path: the budget check for the chain's final block
			// passes, so the whole fused chain executes (the final block
			// may overshoot the budget, exactly as a single block may).
			used += st.cycles
			insns += st.insns
			if w.chainVisits[id] == 0 {
				w.chainTouched = append(w.chainTouched, id)
			}
			w.chainVisits[id]++
			if st.end == NoBlock {
				w.cur = st.next
				continue
			}
			id = st.end
		} else {
			// The budget runs out inside this chain: execute a single
			// block the pre-fusion way so the stop point stays exact.
			b := &blocks[id]
			used += int64(b.Cycles)
			insns += int64(b.Insns)
			if w.visits[id] == 0 {
				w.touched = append(w.touched, id)
			}
			w.visits[id]++
			switch b.Term {
			case TermFall:
				w.cur = b.Fall
				continue
			case TermJump:
				w.cur = b.Taken
				continue
			}
		}
		b := &blocks[id]

		var next BlockID
		switch b.Term {
		case TermCond:
			taken := w.rng.Bool(float64(b.TakenProb))
			w.Count.Branches++
			w.Count.CondBranches++
			if taken {
				next = b.Taken
			} else {
				next = b.Fall
			}
			if sink != nil {
				w.pushEvent(sink, BranchEvent{
					Block: id, Target: next,
					From: p.endAddr(id), To: blocks[next].Addr,
					Kind: TermCond, Taken: taken,
				})
			}
		case TermIndirectJump:
			next = w.pickTarget(b, totals[id])
			w.Count.Branches++
			w.Count.IndirectBranches++
			if sink != nil {
				w.pushEvent(sink, BranchEvent{
					Block: id, Target: next,
					From: p.endAddr(id), To: blocks[next].Addr,
					Kind: TermIndirectJump,
				})
			}
		case TermCall:
			next = b.Taken
			if len(w.stack) < maxCallDepth {
				w.stack = append(w.stack, b.Fall)
			}
			w.noteEntry(next)
		case TermIndirectCall:
			next = w.pickTarget(b, totals[id])
			w.Count.Branches++
			w.Count.IndirectBranches++
			if len(w.stack) < maxCallDepth {
				w.stack = append(w.stack, b.Fall)
			}
			w.noteEntry(next)
			if sink != nil {
				w.pushEvent(sink, BranchEvent{
					Block: id, Target: next,
					From: p.endAddr(id), To: blocks[next].Addr,
					Kind: TermIndirectCall,
				})
			}
		case TermReturn:
			if n := len(w.stack); n > 0 {
				next = w.stack[n-1]
				w.stack = w.stack[:n-1]
			} else {
				// Returning past main: restart the outer loop, as a
				// long-running service's event loop does.
				next = p.Entry
			}
			w.Count.Branches++
			w.Count.IndirectBranches++
			if sink != nil {
				w.pushEvent(sink, BranchEvent{
					Block: id, Target: next,
					From: p.endAddr(id), To: blocks[next].Addr,
					Kind: TermReturn,
				})
			}
		case TermSyscall:
			w.Count.Syscalls++
			w.cur = b.Fall
			w.Count.Cycles += used
			w.Count.Insns += insns
			w.finishRun(sink)
			return used, StopSyscall, b.SyscallClass
		default:
			panic(fmt.Sprintf("binary: bad terminator %d in %q", b.Term, p.Name))
		}
		w.cur = next
	}
	w.Count.Cycles += used
	w.Count.Insns += insns
	w.finishRun(sink)
	return used, StopBudget, 0
}

// pushEvent appends one event to the pending batch, flushing to the sink
// when the batch fills. Conditional directions are mirrored into the
// batch's TNT pack so the sink can consume them without re-reading the
// events.
func (w *Walker) pushEvent(sink BranchSink, ev BranchEvent) {
	if ev.Kind == TermCond {
		w.tnt.push(ev.Taken)
	}
	w.batch[w.batchLen] = ev
	w.batchLen++
	if w.batchLen == branchBatchSize {
		w.flushBatch(sink)
	}
}

// flushBatch hands the pending batch and its pack to the sink and resets
// both.
func (w *Walker) flushBatch(sink BranchSink) {
	sink.EmitBranches(w.batch[:w.batchLen], &w.tnt)
	w.batchLen = 0
	w.tnt = TNTPack{}
}

// finishRun flushes the pending event batch; every RunBatch exit path
// goes through it. Deferred aggregates are left pending — short segments
// re-touch the same working set, so settling per simulation (Settle)
// rather than per segment charges each distinct block once, not once per
// timeslice.
func (w *Walker) finishRun(sink BranchSink) {
	if w.batchLen > 0 {
		w.flushBatch(sink)
	}
}

// Settle folds the deferred per-block visit counts into the aggregate
// counters (MemOps, CatHits, FuncEntries). Call it before reading those
// fields. Integer sums are associative, so the totals are bit-identical
// to per-visit charging no matter how many runs a settle spans.
func (w *Walker) Settle() { w.settleCounters() }

// settleCounters multiplies the accumulated per-block visit counts into
// the cumulative counters and resets the pending sets.
func (w *Walker) settleCounters() {
	p := w.prog
	for _, id := range w.touched {
		n := w.visits[id]
		w.visits[id] = 0
		w.chargeBlock(&p.Blocks[id], n)
	}
	w.touched = w.touched[:0]
	if len(w.chainTouched) > 0 {
		sup := p.superSteps()
		for _, id := range w.chainTouched {
			n := w.chainVisits[id]
			w.chainVisits[id] = 0
			st := &sup[id]
			cur := id
			for k := int32(0); ; k++ {
				b := &p.Blocks[cur]
				w.chargeBlock(b, n)
				if k+1 == st.n {
					break
				}
				if b.Term == TermJump {
					cur = b.Taken
				} else {
					cur = b.Fall
				}
			}
		}
		w.chainTouched = w.chainTouched[:0]
	}
	if len(w.funcTouched) > 0 {
		if w.Count.FuncEntries == nil {
			w.Count.FuncEntries = make(map[int32]int64)
		}
		for _, fn := range w.funcTouched {
			w.Count.FuncEntries[fn] += w.funcVisits[fn]
			w.funcVisits[fn] = 0
		}
		w.funcTouched = w.funcTouched[:0]
	}
}

// chargeBlock folds n visits of one block into the aggregate counters.
func (w *Walker) chargeBlock(b *Block, n int64) {
	w.Count.CatHits[w.prog.Funcs[b.Func].Category] += n
	for cls := 0; cls < NumMemClasses; cls++ {
		for wd := 0; wd < 4; wd++ {
			if v := b.MemOps[cls][wd]; v != 0 {
				w.Count.MemOps[cls][wd] += n * int64(v)
			}
		}
	}
}

// noteEntry records a function entry in the occurrence histogram
// (deferred; settleCounters folds it into Count.FuncEntries).
func (w *Walker) noteEntry(target BlockID) {
	fn := w.prog.Blocks[target].Func
	if w.funcVisits[fn] == 0 {
		w.funcTouched = append(w.funcTouched, fn)
	}
	w.funcVisits[fn]++
}

// targetTotals returns (building once) each block's summed TargetW,
// added in slice order: a draw scales by this exact float total.
func (p *Program) targetTotals() []float64 {
	p.weightOnce.Do(func() {
		tot := make([]float64, len(p.Blocks))
		for i := range p.Blocks {
			for _, f := range p.Blocks[i].TargetW {
				tot[i] += float64(f)
			}
		}
		p.targetTotal = tot
	})
	return p.targetTotal
}

// pickTarget selects an indirect terminator's destination; total is the
// block's summed TargetW.
func (w *Walker) pickTarget(b *Block, total float64) BlockID {
	if len(b.Targets) == 1 {
		return b.Targets[0]
	}
	x := w.rng.Float64() * total
	for i, f := range b.TargetW {
		x -= float64(f)
		if x < 0 {
			return b.Targets[i]
		}
	}
	return b.Targets[len(b.Targets)-1]
}
