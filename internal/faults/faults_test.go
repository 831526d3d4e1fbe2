package faults

import (
	"strconv"
	"testing"

	"exist/internal/simtime"
	"exist/internal/xrand"
)

// heartbeatDelay returns the extra delay the node's seq-th heartbeat
// suffers: zero for healthy nodes, the keyed GrayBeatDelay draw for gray
// ones.
func (in *Injector) heartbeatDelay(node string, seq int64) simtime.Duration {
	if in == nil || !in.GrayNode(node) {
		return 0
	}
	return in.GrayBeatDelay(in.GrayBeats(node), seq)
}

// TestNilInjector is the nil-receiver contract: every Injector method is
// callable on a nil *Injector and injects nothing, so faults-off call
// sites never need to branch on enablement (and can never panic).
func TestNilInjector(t *testing.T) {
	var in *Injector
	if cfg := in.Config(); cfg != (Config{}) {
		t.Fatalf("config = %+v", cfg)
	}
	if err := in.PutError("k", 0); err != nil {
		t.Fatal(err)
	}
	if err := in.InsertError("b", 0); err != nil {
		t.Fatal(err)
	}
	if f := in.SessionFate("s"); f != FateHealthy {
		t.Fatalf("fate = %v", f)
	}
	if in.StallReconcile(1) {
		t.Fatal("nil injector stalled")
	}
	if _, ok := in.NextCrash("n", 0); ok {
		t.Fatal("nil injector crashed a node")
	}
	in.CountCrash()
	if _, ok := in.NextCtrlCrash("ctrl-0", 0); ok {
		t.Fatal("nil injector crashed a controller")
	}
	in.CountCtrlCrash()
	if _, _, ok := in.NextPartition("ctrl-0", 0); ok {
		t.Fatal("nil injector partitioned")
	}
	in.CountPartition()
	if in.GrayNode("n") {
		t.Fatal("nil injector grayed a node")
	}
	if d := in.ClockSkew("ctrl-0"); d != 0 {
		t.Fatalf("clock skew = %v", d)
	}
	data := []byte{1, 2, 3}
	if n := in.CorruptBuffer("s", data); n != 0 {
		t.Fatalf("flips = %d", n)
	}
	if got := in.TruncateBuffer("s", data); len(got) != 3 {
		t.Fatalf("truncated to %d", len(got))
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{Seed: 7})
	for i := 0; i < 200; i++ {
		if err := in.PutError("sessions/x", i); err != nil {
			t.Fatal(err)
		}
		if f := in.SessionFate("s"); f != FateHealthy {
			t.Fatalf("fate = %v", f)
		}
		if in.StallReconcile(int64(i)) {
			t.Fatal("stalled")
		}
	}
}

// TestDecisionsKeyedByIdentifierNotOrder is the determinism contract:
// the same (seed, identifier) pair always yields the same decision, in
// whatever order decisions are requested.
func TestDecisionsKeyedByIdentifierNotOrder(t *testing.T) {
	a := New(Config{Seed: 42, SessionLossProb: 0.3, CorruptProb: 0.3, PutFailProb: 0.5})
	b := New(Config{Seed: 42, SessionLossProb: 0.3, CorruptProb: 0.3, PutFailProb: 0.5})

	ids := []string{"r/node-0", "r/node-1", "r/node-2", "q/node-0", "q/node-5"}
	forward := make(map[string]Fate)
	for _, id := range ids {
		forward[id] = a.SessionFate(id)
	}
	for i := len(ids) - 1; i >= 0; i-- {
		if got := b.SessionFate(ids[i]); got != forward[ids[i]] {
			t.Fatalf("fate(%s) order-dependent: %v vs %v", ids[i], got, forward[ids[i]])
		}
	}

	// Put decisions keyed by (key, attempt).
	e1 := a.PutError("k", 3)
	e2 := b.PutError("k", 3)
	if (e1 == nil) != (e2 == nil) {
		t.Fatalf("put decision differs: %v vs %v", e1, e2)
	}
}

func TestFateRatesRoughlyMarginal(t *testing.T) {
	in := New(Config{Seed: 9, SessionLossProb: 0.2})
	lost := 0
	n := 5000
	for i := 0; i < n; i++ {
		if in.SessionFate(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune(i))) == FateLost {
			lost++
		}
	}
	frac := float64(lost) / float64(n)
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("loss rate %.3f, want ~0.2", frac)
	}
	if got := in.Stats().SessionsLost; got != int64(lost) {
		t.Fatalf("stats lost = %d, counted %d", got, lost)
	}
}

func TestFlipBitsAndTruncate(t *testing.T) {
	orig := make([]byte, 64)
	data := append([]byte(nil), orig...)
	if n := FlipBits(data, 5, 11); n != 5 {
		t.Fatalf("flips = %d", n)
	}
	diff := 0
	for i := range data {
		for b := 0; b < 8; b++ {
			if (data[i]^orig[i])&(1<<uint(b)) != 0 {
				diff++
			}
		}
	}
	// Flips can collide on the same bit; at least one must survive, at
	// most five.
	if diff < 1 || diff > 5 {
		t.Fatalf("bit diff = %d", diff)
	}
	// Same seed, same flips.
	again := append([]byte(nil), orig...)
	FlipBits(again, 5, 11)
	for i := range data {
		if data[i] != again[i] {
			t.Fatal("FlipBits not deterministic")
		}
	}

	if got := Truncate(make([]byte, 100), 0.25); len(got) != 75 {
		t.Fatalf("truncate kept %d", len(got))
	}
	if got := Truncate(make([]byte, 100), 0); len(got) != 100 {
		t.Fatalf("zero truncate kept %d", len(got))
	}
	if got := Truncate(make([]byte, 10), 5); len(got) != 1 {
		t.Fatalf("over-truncate kept %d", len(got))
	}
}

func TestCrashSchedule(t *testing.T) {
	in := New(Config{Seed: 3, CrashMTBF: 2 * simtime.Second})
	d1, ok := in.NextCrash("node-0", 0)
	if !ok || d1 < simtime.Millisecond {
		t.Fatalf("crash delay %v ok=%v", d1, ok)
	}
	d2, _ := in.NextCrash("node-0", 0)
	if d1 != d2 {
		t.Fatalf("crash delay not stable: %v vs %v", d1, d2)
	}
	// Mean of many draws should be near the MTBF.
	var sum simtime.Duration
	n := 2000
	for i := 0; i < n; i++ {
		d, _ := in.NextCrash("node-x", i)
		sum += d
	}
	mean := float64(sum) / float64(n)
	if mean < 1.7e9 || mean > 2.3e9 {
		t.Fatalf("mean crash delay %.3gns, want ~2e9", mean)
	}
}

func TestCtrlCrashAndPartitionSchedules(t *testing.T) {
	in := New(Config{Seed: 5, CtrlCrashMTBF: 3 * simtime.Second, PartitionMTBF: 2 * simtime.Second})
	d1, ok := in.NextCtrlCrash("ctrl-0", 0)
	if !ok || d1 < simtime.Millisecond {
		t.Fatalf("ctrl crash delay %v ok=%v", d1, ok)
	}
	if d2, _ := in.NextCtrlCrash("ctrl-0", 0); d1 != d2 {
		t.Fatalf("ctrl crash delay not stable: %v vs %v", d1, d2)
	}
	p1, l1, ok := in.NextPartition("ctrl-1", 2)
	if !ok || p1 < simtime.Millisecond || l1 < simtime.Millisecond {
		t.Fatalf("partition %v/%v ok=%v", p1, l1, ok)
	}
	p2, l2, _ := in.NextPartition("ctrl-1", 2)
	if p1 != p2 || l1 != l2 {
		t.Fatalf("partition draw not stable: %v/%v vs %v/%v", p1, l1, p2, l2)
	}
	// Disabled shapes report ok=false.
	off := New(Config{Seed: 5})
	if _, ok := off.NextCtrlCrash("c", 0); ok {
		t.Fatal("ctrl crash without MTBF")
	}
	if _, _, ok := off.NextPartition("c", 0); ok {
		t.Fatal("partition without MTBF")
	}
}

func TestGrayNodesStableAndDelayed(t *testing.T) {
	in := New(Config{Seed: 8, GrayNodeProb: 0.3, GrayDelayMean: 200 * simtime.Millisecond})
	gray, healthy := 0, ""
	for i := 0; i < 200; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		g := in.GrayNode(name)
		if g != in.GrayNode(name) {
			t.Fatalf("gray set unstable for %s", name)
		}
		if g {
			gray++
			if d := in.heartbeatDelay(name, 1); d <= 0 {
				t.Fatalf("gray node %s heartbeat delay = %v", name, d)
			}
			if d1, d2 := in.heartbeatDelay(name, 7), in.heartbeatDelay(name, 7); d1 != d2 {
				t.Fatalf("heartbeat delay not keyed: %v vs %v", d1, d2)
			}
		} else if healthy == "" {
			healthy = name
		}
	}
	if gray < 30 || gray > 90 {
		t.Fatalf("gray count %d of 200, want ~60", gray)
	}
	if d := in.heartbeatDelay(healthy, 0); d != 0 {
		t.Fatalf("healthy node delayed by %v", d)
	}
}

func TestClockSkewBoundedAndStable(t *testing.T) {
	max := 50 * simtime.Millisecond
	in := New(Config{Seed: 4, ClockSkewMax: max})
	var nonZero bool
	for i := 0; i < 50; i++ {
		name := string(rune('a' + i))
		s := in.ClockSkew(name)
		if s < -max || s > max {
			t.Fatalf("skew %v outside ±%v", s, max)
		}
		if s != in.ClockSkew(name) {
			t.Fatalf("skew unstable for %s", name)
		}
		if s != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("all skews zero")
	}
	if s := New(Config{Seed: 4}).ClockSkew("x"); s != 0 {
		t.Fatalf("skew without ClockSkewMax = %v", s)
	}
}

func TestFateString(t *testing.T) {
	for f, want := range map[Fate]string{
		FateHealthy: "healthy", FateLost: "lost",
		FateCorrupted: "corrupted", FateTruncated: "truncated", Fate(9): "?",
	} {
		if f.String() != want {
			t.Errorf("Fate(%d) = %q", int(f), f.String())
		}
	}
}

func TestChurnSchedule(t *testing.T) {
	in := New(Config{Seed: 7, ChurnMTBF: 10 * simtime.Second, ChurnDownMean: 2 * simtime.Second})
	d1, dn1, ok := in.NextChurn("node-0", 0)
	if !ok || d1 < simtime.Millisecond || dn1 < simtime.Millisecond {
		t.Fatalf("churn draw %v/%v ok=%v", d1, dn1, ok)
	}
	if d2, dn2, _ := in.NextChurn("node-0", 0); d1 != d2 || dn1 != dn2 {
		t.Fatalf("churn draw not stable: %v/%v vs %v/%v", d1, dn1, d2, dn2)
	}
	// Mean leave delay of many draws should be near the MTBF.
	var sum simtime.Duration
	n := 2000
	for i := 0; i < n; i++ {
		d, _, _ := in.NextChurn("node-x", i)
		sum += d
	}
	mean := float64(sum) / float64(n)
	if mean < 8.5e9 || mean > 11.5e9 {
		t.Fatalf("mean churn delay %.3gns, want ~1e10", mean)
	}
	// Down-time defaults to 2 s when ChurnDownMean is unset.
	def := New(Config{Seed: 7, ChurnMTBF: 10 * simtime.Second})
	if _, dn, ok := def.NextChurn("node-0", 0); !ok || dn < simtime.Millisecond {
		t.Fatalf("default down draw %v ok=%v", dn, ok)
	}
	// Disabled shape reports ok=false, and the counters tally.
	off := New(Config{Seed: 7})
	if _, _, ok := off.NextChurn("node-0", 0); ok {
		t.Fatal("churn without MTBF")
	}
	in.CountLeave()
	in.CountLeave()
	in.CountJoin()
	if s := in.Stats(); s.Leaves != 2 || s.Joins != 1 {
		t.Fatalf("stats leaves=%d joins=%d, want 2/1", s.Leaves, s.Joins)
	}
}

// TestGrayBeatDelayMatchesHeartbeatDelay pins the keyed gray-beat draw
// against the long way: for every gray node the delay drawn from the
// stored label hash, and heartbeatDelay, equal the draw from the
// concatenated label "faults/graydelay/<name>#<k>" for each of the first
// 10,000 beats, and every injector counts the same delayed beats.
func TestGrayBeatDelayMatchesHeartbeatDelay(t *testing.T) {
	cfg := Config{Seed: 7, GrayNodeProb: 0.2}
	long, beat, keyed := New(cfg), New(cfg), New(cfg)
	gray, delayed := 0, int64(0)
	for i := 0; i < 40; i++ {
		name := "node-" + strconv.Itoa(i)
		if !keyed.GrayNode(name) {
			continue
		}
		gray++
		beats := keyed.GrayBeats(name)
		for k := int64(0); k < 10_000; k++ {
			var want simtime.Duration
			if d := xrand.Split(cfg.Seed, "faults/graydelay/"+name+"#"+strconv.FormatInt(k, 10)).Exp(float64(long.cfg.GrayDelayMean)); d > 0 {
				want = simtime.Duration(d)
				delayed++
			}
			if got := keyed.GrayBeatDelay(beats, k); got != want {
				t.Fatalf("%s beat %d: keyed delay %v, want %v", name, k, got, want)
			}
			if got := beat.heartbeatDelay(name, k); got != want {
				t.Fatalf("%s beat %d: heartbeatDelay %v, want %v", name, k, got, want)
			}
		}
	}
	if gray == 0 || delayed == 0 {
		t.Fatalf("%d gray nodes among 40, %d delayed beats", gray, delayed)
	}
	if b, k := beat.Stats().GrayDelays, keyed.Stats().GrayDelays; b != delayed || k != delayed {
		t.Fatalf("GrayDelays: heartbeatDelay %d, keyed %d, want %d", b, k, delayed)
	}
}

// TestSessionFateSkipsZeroProbabilities checks the no-draw shortcut:
// with every session probability at zero SessionFate is healthy and
// counts nothing, and skipping its draws leaves the other decision
// streams exactly where an injector that never asked would have them.
func TestSessionFateSkipsZeroProbabilities(t *testing.T) {
	cfg := Config{Seed: 4, PutFailProb: 0.5}
	asked, never := New(cfg), New(cfg)
	for i := 0; i < 1000; i++ {
		id := "req/node-" + string(rune('a'+i%26))
		before := asked.Stats()
		if f := asked.SessionFate(id); f != FateHealthy {
			t.Fatalf("fate of %s = %v with zero probabilities", id, f)
		}
		if asked.Stats() != before {
			t.Fatalf("SessionFate changed the stats: %+v -> %+v", before, asked.Stats())
		}
		if a, n := asked.PutError(id, i), never.PutError(id, i); (a == nil) != (n == nil) {
			t.Fatalf("put %s attempt %d: %v after SessionFate, %v without", id, i, a, n)
		}
	}
	if asked.Stats() != never.Stats() {
		t.Fatalf("stats %+v, want %+v", asked.Stats(), never.Stats())
	}
}
