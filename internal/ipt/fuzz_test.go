package ipt

import (
	"bytes"
	"math"
	"testing"
)

// FuzzPackRoundTrip fuzzes the packed core codec, the only core payload
// encoding on the session wire. Two properties per input:
//
//   - for any byte string b, UnpackStream(PackStream(b), len(b)) == b;
//   - b read as a packed stream with declared size rawLen either errors
//     or yields exactly rawLen bytes, and never panics.
//
// Run with: go test -fuzz=FuzzPackRoundTrip ./internal/ipt
// The checked-in corpus under testdata/fuzz seeds tracer-shaped streams,
// their packed forms, a torn head and hostile packed shapes.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Fuzz(func(t *testing.T, b []byte, rawLen uint16) {
		got, err := UnpackStream(nil, PackStream(nil, b), len(b))
		if err != nil {
			t.Fatalf("UnpackStream(PackStream(b)): %v", err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("roundtrip mismatch: %d bytes in, %d out", len(b), len(got))
		}
		out, err := UnpackStream(nil, b, int(rawLen))
		if err == nil && len(out) != int(rawLen) {
			t.Fatalf("no error but %d bytes produced, declared %d", len(out), rawLen)
		}
	})
}

// FuzzParser drives the decoder's packet loop over arbitrary bytes: parse
// until the end, resynchronizing at the next PSB after each malformed
// packet. Every step must advance the parser, so the loop terminates.
//
// Run with: go test -fuzz=FuzzParser ./internal/ipt
func FuzzParser(f *testing.F) {
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewParser(data)
		for {
			before := p.Pos()
			_, ok, err := p.Next()
			if err != nil {
				if !p.Sync() {
					break
				}
			} else if !ok {
				break
			}
			if p.Pos() <= before || p.Pos() > len(data) {
				t.Fatalf("parser moved from %d to %d in %d bytes", before, p.Pos(), len(data))
			}
		}
	})
}

// denseToPA is the reference for FuzzToPA: a plain byte slice holding the
// region's contents, with the STOP and wrap rules applied byte for byte.
type denseToPA struct {
	buf                    []byte
	size                   int
	ring, stopped, wrapped bool
	written, dropped       int64
}

func (m *denseToPA) write(p []byte) bool {
	for len(p) > 0 {
		if len(m.buf) == m.size && !m.stopped {
			if !m.ring {
				m.stopped = true
			} else {
				m.wrapped, m.buf = true, m.buf[:0]
			}
		}
		if m.stopped {
			m.dropped += int64(len(p))
			return false
		}
		n := min(len(p), m.size-len(m.buf))
		m.buf = append(m.buf, p[:n]...)
		m.written += int64(n)
		p = p[n:]
	}
	return true
}

func (m *denseToPA) remaining() int64 {
	switch {
	case m.ring:
		return math.MaxInt64
	case m.stopped:
		return 0
	}
	return int64(m.size - len(m.buf))
}

// FuzzToPA runs a sequence of Write and WriteZeros calls on a ToPA and on
// denseToPA and compares every observable after each call. size is taken
// modulo 1 MiB (plus one); ops is read three bytes per call: an even
// first byte writes payload bytes, an odd one zeros, and the next two
// give the length.
//
// Run with: go test -fuzz=FuzzToPA ./internal/ipt
func FuzzToPA(f *testing.F) {
	// The shapes TestWriteZerosEquivalence and TestOnBranchBatchEquivalence
	// use, each as one region, under the zero/payload steps of the former.
	var steps []byte
	for _, n := range []int{17, 1, 250, 4096, 0, 333, 77, 5000} {
		steps = append(steps, 1, byte(n), byte(n>>8), 0, 6, 0)
	}
	for _, sh := range []struct {
		size uint32
		ring bool
	}{{600, false}, {384, true}, {1000, false}, {1 << 20, true}, {8192, true},
		{8192, false}, {7168, false}, {160, false}, {777, false}} {
		f.Add(sh.size-1, sh.ring, steps)
	}
	f.Fuzz(func(t *testing.T, size uint32, ring bool, ops []byte) {
		got := NewToPA(1+int(size%(1<<20)), ring)
		ref := &denseToPA{size: got.size, ring: ring}
		for i := 0; i+3 <= len(ops) && i < 3*64; i += 3 {
			n := int(ops[i+1]) | int(ops[i+2])<<8
			var okGot, okRef bool
			if ops[i]&1 == 1 {
				okGot, okRef = got.WriteZeros(int64(n)), ref.write(make([]byte, n))
			} else {
				p := make([]byte, n)
				for j := range p {
					p[j] = byte(1 + (i+j)%255)
				}
				okGot, okRef = got.Write(p), ref.write(p)
			}
			if okGot != okRef || !bytes.Equal(got.Bytes(), ref.buf) ||
				got.Used() != int64(len(ref.buf)) || got.Written() != ref.written ||
				got.Dropped() != ref.dropped || got.Stopped() != ref.stopped ||
				got.Wrapped() != ref.wrapped || got.Remaining() != ref.remaining() {
				t.Fatalf("op %d (kind %d, %d bytes) diverges: ok %v/%v used %d/%d written %d/%d dropped %d/%d stopped %v/%v wrapped %v/%v remaining %d/%d",
					i/3, ops[i]&1, n, okGot, okRef, got.Used(), len(ref.buf), got.Written(), ref.written,
					got.Dropped(), ref.dropped, got.Stopped(), ref.stopped, got.Wrapped(), ref.wrapped,
					got.Remaining(), ref.remaining())
			}
		}
	})
}
