package hotbench

import (
	"bytes"
	"testing"

	"exist/internal/trace"
)

// marshalFixture is the shared session the wire-format benchmarks run
// on: the decode-hot fixture (4M cycle budget, real tracer output).
func marshalFixture(b *testing.B) *trace.Session {
	b.Helper()
	prog := Program(1)
	return Session(prog, 1, 4_000_000)
}

// Package-level sinks keep the compiler from discarding measured calls.
var (
	marshalSink   []byte
	unmarshalSink *trace.Session
)

// BenchmarkMarshalHot measures session serialization. SetBytes is the
// v1-equivalent payload (trace.V1Size), so MB/s tracks session size
// rather than the compressed blob.
func BenchmarkMarshalHot(b *testing.B) {
	s := marshalFixture(b)
	b.SetBytes(int64(trace.V1Size(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marshalSink = s.Marshal()
	}
}

// BenchmarkUnmarshalHot measures session parsing.
func BenchmarkUnmarshalHot(b *testing.B) {
	s := marshalFixture(b)
	blob := s.Marshal()
	b.SetBytes(int64(trace.V1Size(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if unmarshalSink, err = trace.UnmarshalSession(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMarshalFixtureCompression pins the headline size win on the real
// fixture: packed v2 must be at least 3x smaller than the v1-equivalent
// size.
func TestMarshalFixtureCompression(t *testing.T) {
	prog := Program(1)
	s := Session(prog, 1, 4_000_000)
	v1 := trace.V1Size(s)
	v2 := s.Marshal()
	if got, err := trace.UnmarshalSession(v2); err != nil {
		t.Fatal(err)
	} else {
		for i := range s.Cores {
			if !bytes.Equal(got.Cores[i].Data, s.Cores[i].Data) {
				t.Fatalf("core %d roundtrip mismatch", i)
			}
		}
	}
	ratio := float64(v1) / float64(len(v2))
	if ratio < 3 {
		t.Fatalf("compression ratio %.2fx < 3x (v1 %d, v2 %d)", ratio, v1, len(v2))
	}
}
