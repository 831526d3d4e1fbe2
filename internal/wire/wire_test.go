package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFixedRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 0x0123456789abcdef)
	r := NewReader(b)
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", got)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err=%v len=%d", r.Err(), r.Len())
	}
}

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	for _, v := range cases {
		b := AppendUvarint(nil, v)
		if len(b) != UvarintLen(v) {
			t.Errorf("UvarintLen(%d) = %d, encoded %d", v, UvarintLen(v), len(b))
		}
		r := NewReader(b)
		if got := r.Uvarint(); got != v || r.Err() != nil {
			t.Errorf("Uvarint(%d) = %d, err %v", v, got, r.Err())
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := AppendZigzag(nil, v)
		if len(b) != UvarintLen(Zigzag(v)) {
			return false
		}
		r := NewReader(b)
		return r.Zigzag() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Small magnitudes must stay small.
	for _, v := range []int64{0, -1, 1, -64, 63} {
		if len(AppendZigzag(nil, v)) != 1 {
			t.Errorf("zigzag(%d) not 1 byte", v)
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32() // short
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// All later reads are dead but must not panic and must keep the
	// first error.
	first := r.Err()
	_ = r.U64()
	_ = r.Uvarint()
	_ = r.Bytes(100)
	if r.Err() != first {
		t.Fatalf("sticky error replaced: %v", r.Err())
	}
}

func TestReaderBytesBounds(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if b := r.Bytes(2); len(b) != 2 || b[0] != 1 {
		t.Fatalf("Bytes(2) = %v", b)
	}
	if b := r.Bytes(5); b != nil || r.Err() == nil {
		t.Fatal("over-length Bytes must fail, not allocate")
	}
	r2 := NewReader([]byte{1})
	if b := r2.Bytes(-1); b != nil || r2.Err() == nil {
		t.Fatal("negative length must fail")
	}
}

func TestReaderBytesAliases(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	r := NewReader(buf)
	b := r.Bytes(4)
	buf[0] = 99
	if b[0] != 99 {
		t.Fatal("Bytes must alias the input, not copy")
	}
}

func TestUnterminatedVarint(t *testing.T) {
	r := NewReader([]byte{0x80, 0x80, 0x80})
	_ = r.Uvarint()
	if r.Err() == nil {
		t.Fatal("unterminated varint must error")
	}
	// 11 continuation bytes: overflow.
	r2 := NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	_ = r2.Uvarint()
	if r2.Err() == nil {
		t.Fatal("overlong varint must error")
	}
}
