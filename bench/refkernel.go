package main

import "time"

// The reference kernel measures how fast the host runs right now. Shared
// machines drift by tens of percent over minutes as neighbours load the
// caches and memory; the benchmark runs this fixed, standard-library-only
// kernel before every op and scales its host times by refNominal over the
// kernel's median time in the same pass, so the end-to-end times read as
// if measured on a host running the kernel in refNominal. The kernel
// mixes the simulator's kinds of host work: dependent integer arithmetic
// with unpredictable branches, dependent loads scattered over a working
// set larger than a core's private cache, and small allocations.
//
// refNominal is the kernel's median time on the 2-vCPU KVM guest
// (Xeon, 4 MiB L2 per core) the baseline in README.md was measured on.
// It is a fixed constant: changing it rescales every reported time.
const refNominal = 4500 * time.Microsecond

const (
	refArith  = 1_000_000
	refChase  = 15_000
	refAllocs = 10_000
	refWords  = 2 << 20 // 8 MiB of uint32 links
)

var (
	refRing []uint32
	refSink uint64
)

// refList is one allocation of the kernel's allocation phase.
type refList struct {
	next *refList
	v    [4]uint64
}

// refKernel runs the reference kernel once and returns its wall time.
func refKernel() time.Duration {
	if refRing == nil {
		refRing = ringPermutation(refWords)
	}
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < refArith; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x&7 == 3 {
			x ^= x >> 17
		}
	}
	idx := uint32(0)
	for i := 0; i < refChase; i++ {
		idx = refRing[idx]
	}
	var head *refList
	for i := 0; i < refAllocs; i++ {
		head = &refList{next: head, v: [4]uint64{uint64(i)}}
	}
	for n := head; n != nil; n = n.next {
		x += n.v[0]
	}
	refSink += x + uint64(idx)
	return time.Since(t0)
}

// ringPermutation returns a single random cycle through n slots, so
// following it visits every slot in an order the prefetcher cannot guess.
func ringPermutation(n int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(7)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x>>33) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	ring := make([]uint32, n)
	for i := range perm {
		ring[perm[i]] = perm[(i+1)%n]
	}
	return ring
}

// medianDuration returns the median of ds (0 for none).
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
