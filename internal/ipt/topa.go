package ipt

import (
	"math"
	"math/bits"
	"sync"
)

// Payload backing arrays are drawn from per-size-class pools so that
// repeated tracing windows (sweep cells, benchmarks) reuse buffers instead
// of re-allocating them. Pool i holds *[]byte of capacity exactly 1<<i; a
// request is rounded up to the next power of two.
var regionPools [33]sync.Pool

// getRegion returns an empty buffer whose capacity is the smallest power of
// two >= size.
func getRegion(size int) []byte {
	c := bits.Len(uint(size - 1))
	if c >= len(regionPools) {
		return make([]byte, 0, size)
	}
	if p, _ := regionPools[c].Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return make([]byte, 0, 1<<c)
}

// putRegion returns a buffer obtained from getRegion to its pool. Buffers
// with non-power-of-two capacity (oversize requests) are dropped.
func putRegion(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 || bits.Len(uint(c))-1 >= len(regionPools) {
		return
	}
	b = b[:0]
	regionPools[bits.Len(uint(c))-1].Put(&b)
}

// run is one stretch of materialized payload: n payload bytes that live
// at byte offset off of the region. Region bytes outside every run are
// zero (PAD). A run's payload position is the sum of the earlier runs'
// lengths, since the payload only grows by appends and a wrap clears both.
type run struct {
	off, n int32
}

// ToPA models the Table of Physical Addresses output mechanism as one
// memory region, the per-core buffer EXIST configures, that the tracer
// fills in order. Two end behaviours exist, selected by the STOP bit of
// the table entry:
//
//   - Stop mode (EXIST's "compulsory tracing" policy, §3.3): when the
//     region fills, the hardware sets the Stopped status and drops further
//     output. This keeps the data closest to the anomaly that triggered
//     tracing and caps memory use.
//   - Ring mode (the REPT-style policy, kept for the ablation benchmarks):
//     output wraps to the start of the region, overwriting the oldest data.
//
// Storage is logical: the region is an implicit zero (PAD) background with
// real packet bytes recorded as sparse runs over one payload buffer.
// Zero-fill writes (aggregate branch bursts) only advance counters, and a
// wrapped ring discards overwritten payload without ever having
// materialized it; Bytes assembles the physical layout once, at read-out.
type ToPA struct {
	size     int // the region's configured size
	used     int // logical bytes currently stored
	payload  []byte
	runs     []run
	ring     bool
	stopped  bool
	wrapped  bool
	released bool
	written  int64
	dropped  int64
}

// NewToPA builds a one-region output buffer of size bytes. If ring is
// false the entry carries the STOP bit.
func NewToPA(size int, ring bool) *ToPA {
	if size <= 0 {
		panic("ipt: ToPA region size must be positive")
	}
	return &ToPA{size: size, ring: ring}
}

// Capacity returns the region size.
func (t *ToPA) Capacity() int64 { return int64(t.size) }

// Used returns the number of valid bytes currently stored.
func (t *ToPA) Used() int64 { return int64(t.used) }

// Written returns the total bytes ever accepted (>= Used in ring mode).
func (t *ToPA) Written() int64 { return t.written }

// Dropped returns the bytes discarded after the STOP region filled.
func (t *ToPA) Dropped() int64 { return t.dropped }

// Stopped reports whether the STOP region has filled.
func (t *ToPA) Stopped() bool { return t.stopped }

// Remaining returns how many more bytes the buffer will accept before it
// stops. Ring-mode buffers never stop and report math.MaxInt64. The staged
// tracer output path uses this to pre-compute, without issuing a write per
// packet, exactly which packet the per-packet path's stop would land on.
func (t *ToPA) Remaining() int64 {
	if t.ring {
		return math.MaxInt64
	}
	if t.stopped {
		return 0
	}
	return int64(t.size - t.used)
}

// Wrapped reports whether ring-mode output has overwritten old data.
func (t *ToPA) Wrapped() bool { return t.wrapped }

// Write appends p to the region, wrapping as needed in ring mode. It
// reports whether all bytes were stored; in stop mode, bytes beyond the
// region are counted as dropped and false is returned.
func (t *ToPA) Write(p []byte) bool {
	for len(p) > 0 {
		space, ok := t.space()
		if !ok {
			t.dropped += int64(len(p))
			return false
		}
		n := min(len(p), space)
		t.ensurePayload(n)
		t.payload = append(t.payload, p[:n]...)
		t.addRun(n)
		t.used += n
		t.written += int64(n)
		p = p[n:]
	}
	return true
}

// WriteZeros appends n zero (PAD) bytes to the region — the
// aggregate-burst fast path. The buffer state afterwards is identical to
// Write of n zero bytes, but nothing is materialized: only the counters
// move.
func (t *ToPA) WriteZeros(n int64) bool {
	for n > 0 {
		space, ok := t.space()
		if !ok {
			t.dropped += n
			return false
		}
		k := min(n, int64(space))
		t.used += int(k)
		t.written += k
		n -= k
	}
	return true
}

// space returns the writable bytes left in the region. A full region
// wraps in ring mode and stops otherwise; ok is false once it has stopped.
func (t *ToPA) space() (int, bool) {
	if t.stopped {
		return 0, false
	}
	if t.used == t.size {
		if !t.ring {
			t.stopped = true
			return 0, false
		}
		t.wrapped = true
		t.used = 0
		t.runs = t.runs[:0]
		t.payload = t.payload[:0]
	}
	return t.size - t.used, true
}

// ensurePayload grows the payload buffer (through the buffer pools) to fit
// n more bytes.
func (t *ToPA) ensurePayload(n int) {
	need := len(t.payload) + n
	if need <= cap(t.payload) {
		return
	}
	newCap := max(2*cap(t.payload), need, 4096)
	nb := getRegion(newCap)[:len(t.payload)]
	copy(nb, t.payload)
	putRegion(t.payload)
	t.payload = nb
}

// addRun records n payload bytes at the region's write offset, extending
// the previous run when contiguous (the common case: packet writes with no
// PAD fill between them).
func (t *ToPA) addRun(n int) {
	if k := len(t.runs); k > 0 {
		if r := &t.runs[k-1]; int(r.off+r.n) == t.used {
			r.n += int32(n)
			return
		}
	}
	t.runs = append(t.runs, run{off: int32(t.used), n: int32(n)})
}

// Bytes returns the stored trace in write order: zero background
// materialized and runs copied into place. In a wrapped ring the result
// starts mid-stream; decoders must Sync to the next PSB.
func (t *ToPA) Bytes() []byte {
	out := make([]byte, t.used)
	pos := int32(0)
	for _, r := range t.runs {
		copy(out[r.off:], t.payload[pos:pos+r.n])
		pos += r.n
	}
	return out
}

// Release returns the payload backing array to the buffer pools. The
// buffer must not be written after release; call it once the trace has
// been copied out with Bytes. Releasing twice is a no-op.
func (t *ToPA) Release() {
	if t == nil || t.released {
		return
	}
	t.released = true
	putRegion(t.payload)
	t.payload = nil
	t.runs = nil
}
