package ipt

import (
	"bytes"
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
