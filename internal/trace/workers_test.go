package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"exist/internal/wire"
)

// workerCounts are the worker counts the read path is compared at: the
// serial path, the two cores of a small host, and more workers than the
// test sessions have cores.
var workerCounts = []int{1, 2, 8}

// unmarshalOutcome renders what unmarshalSession returns on the given
// worker count, so two outcomes compare with ==: the error text, or the
// whole session.
func unmarshalOutcome(data []byte, workers int) string {
	s, err := unmarshalSession(data, workers)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%#v", *s)
}

// checkUnmarshalWorkers fails unless data parses to the same session or
// the same error on every workerCounts count.
func checkUnmarshalWorkers(t *testing.T, name string, data []byte) {
	t.Helper()
	want := unmarshalOutcome(data, 1)
	for _, w := range workerCounts[1:] {
		if got := unmarshalOutcome(data, w); got != want {
			t.Fatalf("%s: %d workers returned\n%.300s\none worker returned\n%.300s", name, w, got, want)
		}
	}
}

// corePayloads returns the [start, end) offsets in blob of each core
// block's body, in block order.
func corePayloads(t *testing.T, blob []byte) [][2]int {
	t.Helper()
	r := wire.NewReader(blob)
	r.U32()
	var out [][2]int
	for {
		tag := r.U8()
		n := int(r.Uvarint())
		start := len(blob) - r.Len()
		r.Bytes(n)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if tag == blockEnd {
			return out
		}
		if tag == blockCore {
			out = append(out, [2]int{start, start + n})
		}
	}
}

// TestMarshalWorkerCount pins Marshal's bytes to the worker count: every
// count writes the same exact-size blob, for sessions with several
// cores, empty cores, garbage payloads, and no cores at all.
func TestMarshalWorkerCount(t *testing.T) {
	garbage := &Session{ID: "g", Cores: []CoreTrace{
		{Core: 2, Data: bytes.Repeat([]byte{0x55, 0x66, 0x77, 0x02}, 300)},
		{Core: 5},
		{Core: 1, Data: testSession(3).Cores[0].Data},
	}}
	for name, s := range map[string]*Session{
		"three cores": testSession(1), "garbage": garbage, "empty": {},
	} {
		want := s.marshal(1)
		if len(want) != cap(want) {
			t.Errorf("%s: blob of %d bytes has capacity %d", name, len(want), cap(want))
		}
		if !bytes.Equal(want, s.Marshal()) {
			t.Errorf("%s: Marshal differs from one worker", name)
		}
		for _, w := range workerCounts[1:] {
			if got := s.marshal(w); !bytes.Equal(got, want) || len(got) != cap(got) {
				t.Errorf("%s: %d workers wrote %d bytes (capacity %d), one worker %d", name, w, len(got), cap(got), len(want))
			}
		}
	}
}

// TestUnmarshalWorkerCount pins UnmarshalSession's result to the worker
// count: the same session for a valid blob, and the same error for every
// truncation, every length byte set to 0xff, and corrupt core payloads.
// Where a core payload and a later block both fail, the error is the
// core's, the first failing block, as a front-to-back parse finds it.
func TestUnmarshalWorkerCount(t *testing.T) {
	// Three cores of 300 payload bytes keep the byte-by-byte sweeps short.
	s := testSession(1)
	for i := range s.Cores {
		s.Cores[i].Data = s.Cores[i].Data[:300]
	}
	blob := s.Marshal()
	checkUnmarshalWorkers(t, "valid", blob)
	for cut := 0; cut < len(blob); cut++ {
		checkUnmarshalWorkers(t, fmt.Sprintf("truncated to %d", cut), blob[:cut])
	}
	for i := 4; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] = 0xff
		checkUnmarshalWorkers(t, fmt.Sprintf("byte %d set to 0xff", i), mut)
	}

	cores := corePayloads(t, blob)
	if len(cores) != 3 {
		t.Fatalf("blob has %d core blocks, want 3", len(cores))
	}
	// Corrupt the middle of core 1's payload (past its five header
	// bytes), then also core 2's: the error stays core 1's.
	corrupt := bytes.Clone(blob)
	for _, c := range cores[1:] {
		for i := c[0] + 8; i < c[1]; i += 5 {
			corrupt[i] ^= 0xa5
		}
	}
	_, want := unmarshalSession(corrupt, 1)
	if want == nil {
		t.Fatal("corrupt core payloads parsed")
	}
	single := bytes.Clone(blob)
	copy(single[cores[1][0]:cores[1][1]], corrupt[cores[1][0]:cores[1][1]])
	// Cut inside the switch-log block, after every core block.
	truncated := corrupt[:len(corrupt)-4]
	for name, data := range map[string][]byte{"two cores": corrupt, "core 1 only": single, "then truncated": truncated} {
		checkUnmarshalWorkers(t, "corrupt, "+name, data)
		for _, w := range workerCounts {
			if _, err := unmarshalSession(data, w); err == nil || err.Error() != want.Error() {
				t.Errorf("corrupt, %s, %d workers: error %v, want core 1's %v", name, w, err, want)
			}
		}
	}
}

// TestUnmarshalFansOut checks that a session past fanOutBytes parses on
// the fan-out path to the session Marshal was given.
func TestUnmarshalFansOut(t *testing.T) {
	s := testSession(5)
	for len(s.Cores) < 8 {
		c := s.Cores[len(s.Cores)%3]
		c.Core = len(s.Cores)
		s.Cores = append(s.Cores, c)
	}
	if raw := s.TotalBytes(); raw < fanOutBytes {
		t.Fatalf("session holds %d payload bytes, under fanOutBytes %d", raw, fanOutBytes)
	}
	got, err := unmarshalSession(s.marshal(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	sessionsEqual(t, s, got)
	if !reflect.DeepEqual(got, mustUnmarshal(t, s.Marshal())) {
		t.Fatal("UnmarshalSession differs from an eight-worker parse")
	}
}

func mustUnmarshal(t *testing.T, blob []byte) *Session {
	t.Helper()
	s, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
