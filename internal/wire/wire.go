// Package wire provides the hand-rolled little-endian and varint
// primitives the v2 session format and the packed packet codec are built
// on. Everything is append-style on the write side and bounds-checked
// with a sticky error on the read side, so encoders allocate exactly once
// and decoders never panic on hostile input — sessions arrive from the
// network/object store.
//
// The package replaces the reflection-based encoding/binary.Write and
// binary.Read calls of the v1 serializer: every helper compiles to plain
// loads/stores with no interface boxing or per-field type switches.
package wire

import "fmt"

// AppendU32 appends v in little-endian order.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendU64 appends v in little-endian order.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U32 reads a little-endian uint32 from b.
func U32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64 from b.
func U64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// AppendUvarint appends v in base-128 varint encoding (LEB128, as in
// encoding/binary but append-style).
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// UvarintLen returns the encoded size of v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Zigzag maps a signed value to an unsigned one with small absolute
// values staying small (0,-1,1,-2 -> 0,1,2,3).
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendZigzag appends a signed value as a zigzag varint.
func AppendZigzag(dst []byte, v int64) []byte {
	return AppendUvarint(dst, Zigzag(v))
}

// ZigzagLen returns the encoded size of v as a zigzag varint.
func ZigzagLen(v int64) int { return UvarintLen(Zigzag(v)) }

// Reader is a bounds-checked cursor over a byte slice with a sticky
// error: after the first short read every accessor returns zero values,
// so decoders can run a whole field sequence and check Err once. Slices
// returned by Bytes alias the underlying buffer (zero-copy).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("wire: truncated at %d: need u8", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail("wire: truncated at %d: need u32", r.off)
		return 0
	}
	v := U32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("wire: truncated at %d: need u64", r.off)
		return 0
	}
	v := U64(r.buf[r.off:])
	r.off += 8
	return v
}

// Uvarint reads a base-128 varint (at most 10 bytes).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.off >= len(r.buf) {
			r.fail("wire: truncated at %d: unterminated varint", r.off)
			return 0
		}
		b := r.buf[r.off]
		r.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
	r.fail("wire: varint overflows 64 bits at %d", r.off)
	return 0
}

// Zigzag reads a zigzag varint.
func (r *Reader) Zigzag() int64 { return Unzigzag(r.Uvarint()) }

// Bytes returns the next n bytes without copying (the result aliases the
// reader's buffer). A request past the end sets the sticky error — the
// caller never allocates for a length field larger than the remaining
// input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.fail("wire: length %d exceeds remaining %d at %d", n, r.Len(), r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// String reads n bytes as a string (one copy, as Go strings require).
func (r *Reader) String(n int) string { return string(r.Bytes(n)) }
