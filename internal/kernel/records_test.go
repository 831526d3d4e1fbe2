package kernel_test

import (
	"testing"
	"testing/quick"

	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// roundTrip ships a switch log through its one wire encoding, the
// session's switch block.
func roundTrip(t *testing.T, l kernel.SwitchLog) kernel.SwitchLog {
	t.Helper()
	s := &trace.Session{ID: "switches", Scale: 1, Switches: l}
	got, err := trace.UnmarshalSession(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return got.Switches
}

func TestSwitchRecordRoundTrip(t *testing.T) {
	f := func(ts int64, cpuID, pid, tid int32, op uint8) bool {
		r := kernel.SwitchRecord{TS: simtime.Time(ts), CPU: cpuID, PID: pid, TID: tid, Op: kernel.SwitchOp(op)}
		got := roundTrip(t, kernel.SwitchLog{Records: []kernel.SwitchRecord{r}})
		return len(got.Records) == 1 && got.Records[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchLogRoundTrip(t *testing.T) {
	var l kernel.SwitchLog
	for i := 0; i < 10; i++ {
		l.Add(kernel.SwitchRecord{TS: simtime.Time(i * 100), CPU: int32(i % 4), PID: 7, TID: int32(i), Op: kernel.SwitchOp(i % 2)})
	}
	if l.SizeBytes() != 240 {
		t.Fatalf("size = %d, want 240", l.SizeBytes())
	}
	got := roundTrip(t, l)
	if len(got.Records) != len(l.Records) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(l.Records))
	}
	for i := range l.Records {
		if got.Records[i] != l.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}
