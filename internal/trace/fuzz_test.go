package trace

import (
	"testing"

	"exist/internal/kernel"
	"exist/internal/simtime"
)

// FuzzUnmarshalSession throws arbitrary bytes at the session parser. It
// must reject malformed input with an error — never a panic — and must
// not size allocations from unvalidated length fields (every make is
// capped by the remaining reader length, so a lying length can at worst
// cost a small multiple of the input size).
//
// Run with: go test -fuzz=FuzzUnmarshalSession ./internal/trace
// The checked-in corpus under testdata/fuzz seeds valid packed blobs so
// mutation starts from deep in the format, plus hand-picked hostile
// shapes (truncations, lying lengths, huge counts). Its valid-v1,
// valid-v2-raw and v1-* entries are blobs from the retired legacy layout
// and raw core encoding: they must now be rejected without panicking.
func FuzzUnmarshalSession(f *testing.F) {
	s := &Session{
		ID: "fuzz", Node: "n0", Workload: "w", PID: 7,
		Start: 100, End: 200, Scale: 0.5,
		Cores: []CoreTrace{
			{Core: 0, Data: []byte{0x00, 0x19, 1, 2, 3, 4, 5, 6, 7}, Wrapped: true},
			{Core: 1, Data: nil, Stopped: true, DroppedBytes: 3},
		},
		Switches: kernel.SwitchLog{Records: []kernel.SwitchRecord{
			{TS: simtime.Time(150), CPU: 0, PID: 7, TID: 8, Op: kernel.OpIn},
			{TS: simtime.Time(180), CPU: 1, PID: 7, TID: 8, Op: kernel.OpOut},
		}},
	}
	blob := s.Marshal()
	f.Add(blob)
	f.Add((&Session{}).Marshal())
	f.Add(append([]byte{0x53, 0x49, 0x58, 0x45}, blob[4:]...)) // v1 magic on a v2 body
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x49, 0x58, 0x45}) // v1 magic alone
	f.Add([]byte{0x32, 0x49, 0x58, 0x45}) // v2 magic alone

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalSession(data)
		if err == nil && got == nil {
			t.Fatal("nil session with nil error")
		}
		if got != nil && err == nil {
			// A session that decodes must re-encode: the writer must not
			// be panicable from parser-accepted state.
			_ = got.Marshal()
		}
	})
}
