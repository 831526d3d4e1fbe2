package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/simtime"
)

// testSession builds a session with PT-shaped core payloads and a
// realistic switch log.
func testSession(seed int64) *Session {
	rng := rand.New(rand.NewSource(seed))
	s := &Session{
		ID:       "sess-roundtrip-1",
		Node:     "node-03",
		Workload: "frontend",
		PID:      4242,
		Start:    simtime.Time(1_000_000),
		End:      simtime.Time(5_000_000),
		Scale:    0.125,
	}
	// Branch targets repeat heavily in real traces (a service loops over
	// the same call sites); mirror that so the dictionary sees hits.
	targets := make([]uint64, 64)
	for i := range targets {
		targets[i] = 0x400000 + uint64(rng.Intn(1<<20))
	}
	for core := 0; core < 3; core++ {
		var data []byte
		data = ipt.AppendPSB(data)
		data = ipt.AppendTSC(data, uint64(1000+core))
		data = ipt.AppendPSBEND(data)
		for i := 0; i < 500; i++ {
			data = ipt.AppendTNT(data, uint8(rng.Intn(8)), 3)
			data = ipt.AppendCYC(data, uint32(rng.Intn(64)))
			data = ipt.AppendTIP(data, ipt.PktTIP, targets[rng.Intn(len(targets))])
		}
		s.Cores = append(s.Cores, CoreTrace{
			Core: core, Data: data,
			Wrapped: core == 1, Stopped: core == 2,
			DroppedBytes: int64(core * 17),
		})
	}
	ts := simtime.Time(1_000_000)
	for i := 0; i < 64; i++ {
		ts += simtime.Time(rng.Intn(50_000))
		op := kernel.OpIn
		if i%2 == 1 {
			op = kernel.OpOut
		}
		s.Switches.Records = append(s.Switches.Records, kernel.SwitchRecord{
			TS: ts, CPU: int32(i % 3), PID: 4242, TID: int32(4242 + i%4), Op: op,
		})
	}
	return s
}

func sessionsEqual(t *testing.T, want, got *Session) {
	t.Helper()
	if want.ID != got.ID || want.Node != got.Node || want.Workload != got.Workload ||
		want.PID != got.PID || want.Start != got.Start || want.End != got.End ||
		want.Scale != got.Scale {
		t.Fatalf("header mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	if len(want.Cores) != len(got.Cores) {
		t.Fatalf("core count: want %d got %d", len(want.Cores), len(got.Cores))
	}
	for i := range want.Cores {
		w, g := &want.Cores[i], &got.Cores[i]
		if w.Core != g.Core || w.Wrapped != g.Wrapped || w.Stopped != g.Stopped ||
			w.DroppedBytes != g.DroppedBytes {
			t.Fatalf("core %d meta mismatch: want %+v got %+v", i, w, g)
		}
		if !bytes.Equal(w.Data, g.Data) {
			t.Fatalf("core %d data mismatch (%d vs %d bytes)", i, len(w.Data), len(g.Data))
		}
	}
	if !reflect.DeepEqual(want.Switches.Records, got.Switches.Records) {
		t.Fatalf("switch log mismatch")
	}
}

func TestV2RoundTripPacked(t *testing.T) {
	s := testSession(1)
	blob := s.Marshal()
	got, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	sessionsEqual(t, s, got)
	if v1 := V1Size(s); len(blob)*2 >= v1 {
		t.Errorf("packed v2 blob %d not under half of v1 %d", len(blob), v1)
	}
}

// TestMarshalGolden pins the wire bytes: the packed encoding must stay
// byte-identical to what earlier builds wrote, so stored sessions and
// freshly uploaded ones are interchangeable.
func TestMarshalGolden(t *testing.T) {
	const want = "900993f4899c926dda03e457b6683c091820fc21842a05c312d9412985345f27"
	sum := sha256.Sum256(testSession(1).Marshal())
	if got := fmt.Sprintf("%x", sum); got != want {
		t.Fatalf("Marshal SHA-256 = %s, want %s", got, want)
	}
}

// TestV1SizePinned pins the v1-equivalent size the ledgers report to the
// length of the flat fixed-width dump earlier builds wrote for the same
// session.
func TestV1SizePinned(t *testing.T) {
	if got := V1Size(testSession(4)); got != 15248 {
		t.Fatalf("V1Size = %d, want 15248", got)
	}
}

// TestV1EmptySession checks the empty session: its v1-equivalent size is
// the bare fixed-width header, and it round-trips through Marshal.
func TestV1EmptySession(t *testing.T) {
	s := &Session{}
	if got := V1Size(s); got != 52 {
		t.Fatalf("empty V1Size = %d, want 52", got)
	}
	got, err := UnmarshalSession(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cores) != 0 || len(got.Switches.Records) != 0 {
		t.Fatalf("empty session decoded as %+v", got)
	}
}

func TestV2GarbageOps(t *testing.T) {
	s := testSession(7)
	blob := s.Marshal()
	// Flip every byte one at a time; must never panic, and if it decodes
	// it must not over-allocate (implicitly checked by not OOMing).
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xff
		_, _ = UnmarshalSession(mut)
	}
}

func TestV2SwitchOpsOutOfRange(t *testing.T) {
	s := &Session{ID: "x"}
	s.Switches.Records = []kernel.SwitchRecord{
		{TS: 1, CPU: 0, PID: 1, TID: 2, Op: kernel.SwitchOp(7)},
		{TS: 2, CPU: 1, PID: 1, TID: 3, Op: kernel.OpIn},
	}
	got, err := UnmarshalSession(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Switches.Records, s.Switches.Records) {
		t.Fatalf("wide-op switch log mismatch: %+v", got.Switches.Records)
	}
}

// TestLegacyBlobsRejected pins the retirement of the v1 layout and the
// raw core encoding: the committed fuzz seeds written in them, valid
// sessions for earlier builds, must now fail to decode with an error.
func TestLegacyBlobsRejected(t *testing.T) {
	for _, name := range []string{"valid-v1", "valid-v2-raw", "v1-lying-length", "v1-truncated"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnmarshalSession", name))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		blob, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := UnmarshalSession([]byte(blob)); err == nil {
			t.Errorf("%s: legacy blob decoded without error", name)
		}
	}
}
