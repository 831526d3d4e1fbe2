package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

// TestWatchStreamReusesBuffer pins the head-index watch buffer: once
// warm, drain/refill cycles allocate nothing, overflow still drops the
// oldest event and marks the stream stale, and Len is exact after every
// operation against a plain-slice model of the same stream.
func TestWatchStreamReusesBuffer(t *testing.T) {
	w := &WatchStream{max: 64}
	seq := int64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			w.push(WatchEvent{Name: "r", Seq: seq})
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := w.Next(); !ok {
				t.Fatal("Next on a stream that should hold events")
			}
		}
	}
	drainRefill := func() { push(40); pop(40) }
	drainRefill()
	if a := testing.AllocsPerRun(100, drainRefill); a != 0 {
		t.Fatalf("drain/refill allocates %.1f times per cycle", a)
	}
	// A stream that never empties walks its head through the storage and
	// compacts; that settles to zero allocations too.
	push(5)
	rolling := func() { push(30); pop(30) }
	rolling()
	if a := testing.AllocsPerRun(100, rolling); a != 0 {
		t.Fatalf("rolling push/pop allocates %.1f times per cycle", a)
	}
	if w.Stale() {
		t.Fatal("stream went stale below its bound")
	}

	// Random pushes, pops and resets against a model with drop-oldest.
	const max = 8
	w = &WatchStream{max: max}
	var model []int64
	rng := xrand.New(3)
	for op := 0; op < 5000; op++ {
		switch k := rng.IntN(10); {
		case k < 6:
			seq++
			w.push(WatchEvent{Seq: seq})
			if len(model) == max {
				model = model[1:]
				if !w.Stale() {
					t.Fatalf("op %d: overflow did not mark the stream stale", op)
				}
			}
			model = append(model, seq)
		case k < 9:
			ev, ok := w.Next()
			if ok != (len(model) > 0) {
				t.Fatalf("op %d: Next ok=%v with %d modelled events", op, ok, len(model))
			}
			if ok {
				if ev.Seq != model[0] {
					t.Fatalf("op %d: Next = %d, want %d", op, ev.Seq, model[0])
				}
				model = model[1:]
			}
		default:
			w.Reset()
			model = model[:0]
			if w.Stale() {
				t.Fatalf("op %d: Reset left the stream stale", op)
			}
		}
		if w.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, w.Len(), len(model))
		}
		if ev, ok := w.peek(); ok != (len(model) > 0) || ok && ev.Seq != model[0] {
			t.Fatalf("op %d: peek = %d/%v disagrees with the model", op, ev.Seq, ok)
		}
	}
}

// openSlots lists the sessions open on node n, in table order.
func openSlots(c *Cluster, n *Node) []*sessionSlot {
	var out []*sessionSlot
	for i := int32(0); i < c.slots.n; i++ {
		if ls := c.slots.at(i); ls.node == n && !ls.closed {
			out = append(out, ls)
		}
	}
	return out
}

// TestLiteCrashResamplesOnlyThatNode crashes a Lite node that holds
// sessions of three requests, opened in an order other than session-ID
// order. Exactly those sessions become resample slots, recorded in
// session-ID order; sessions on other nodes stay in flight untouched;
// and each replacement lands on a node its request has not used.
func TestLiteCrashResamplesOnlyThatNode(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) { cfg.Faults = faults.New(faults.Config{Seed: 5}) })
	pins := map[string][]string{
		"req-c": {"node-3", "node-4"},
		"req-a": {"node-1", "node-3"},
		"req-b": {"node-3", "node-7"},
	}
	var reqs []*TraceRequest
	for _, name := range []string{"req-c", "req-a", "req-b"} {
		r, err := c.Request(name, TraceRequestSpec{App: "Agent", Nodes: pins[name], Period: 5 * simtime.Second})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	c.Run(200 * simtime.Millisecond)
	crashed, _ := c.Node("node-3")
	if got := len(openSlots(c, crashed)); got != 3 {
		t.Fatalf("node-3 holds %d lite sessions, want 3", got)
	}
	type snap struct {
		ls  *sessionSlot
		key string
	}
	others := map[*Node][]snap{}
	for _, n := range c.Nodes {
		if n == crashed {
			continue
		}
		for _, ls := range openSlots(c, n) {
			others[n] = append(others[n], snap{ls, ls.key})
		}
	}
	if len(others) != 3 {
		t.Fatalf("sessions on %d other nodes, want 3", len(others))
	}

	w := c.API.WatchShard(0, nil)
	c.crashNode(crashed)
	if got := len(openSlots(c, crashed)); got != 0 {
		t.Fatalf("crashed node still holds %d open sessions", got)
	}
	var order []string
	for ev, ok := w.Next(); ok; ev, ok = w.Next() {
		order = append(order, ev.Name)
	}
	if got := strings.Join(order, ","); got != "req-a,req-b,req-c" {
		t.Fatalf("slots recorded in order %s, want session-ID order req-a,req-b,req-c", got)
	}
	for _, r := range reqs {
		if len(r.resampleSlots) != 1 || r.resampleSlots[0] != 0 {
			t.Fatalf("%s resample slots = %v, want [0]", r.Name, r.resampleSlots)
		}
	}
	for n, before := range others {
		open := openSlots(c, n)
		if len(open) != len(before) {
			t.Fatalf("%s lost sessions to another node's crash", n.Name)
		}
		for i, ls := range open {
			if ls != before[i].ls || ls.key != before[i].key || ls.closed || ls.lost {
				t.Fatalf("%s session %s disturbed by the crash", n.Name, ls.key)
			}
		}
	}

	c.Run(c.Eng.Now() + simtime.Second)
	for _, r := range reqs {
		if r.Resampled != 1 || len(r.usedNodes) != 3 {
			t.Fatalf("%s: resampled %d, used %v", r.Name, r.Resampled, r.usedNodes)
		}
		var repl *sessionSlot
		for _, n := range c.Nodes {
			for _, ls := range openSlots(c, n) {
				if ls.req == r && ls.attempt == 1 {
					repl = ls
				}
			}
		}
		if repl == nil {
			t.Fatalf("%s: no replacement session in flight", r.Name)
		}
		for _, pinned := range pins[r.Name] {
			if repl.node.Name == pinned {
				t.Fatalf("%s: replacement landed on already-used %s", r.Name, pinned)
			}
		}
		if want := sessionPrefix + r.Name + "/" + repl.node.Name + "/r1"; repl.key != want {
			t.Fatalf("replacement key %q, want %q", repl.key, want)
		}
	}
}

// TestLiteSlotsRecycle pins the session table's Lite slot lifetime. A
// crash-closed slot stays taken until its pending timer fires, so no
// other session gets it meanwhile, and that firing changes no request.
// After a drained run every slot is on the free list, and the table's
// high-water mark is the peak number of sessions in flight.
func TestLiteSlotsRecycle(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) { cfg.Faults = faults.New(faults.Config{Seed: 5}) })
	var reqs []*TraceRequest
	file := func(k int) {
		nodes := []string{fmt.Sprintf("node-%d", k%20), fmt.Sprintf("node-%d", (k+3)%20), "node-3"}
		r, err := c.Request(fmt.Sprintf("req-%02d", k), TraceRequestSpec{App: "Agent", Nodes: nodes, Period: 400 * simtime.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for k := 0; k < 6; k++ {
		file(k)
	}
	// Later filings open sessions, replacements included, while the
	// crashed slots' timers are pending.
	for k := 6; k < 12; k++ {
		c.Eng.Schedule(simtime.Time(k)*simtime.Time(120*simtime.Millisecond), func(simtime.Time) { file(k) })
	}

	// state is what a timer firing could change on a request.
	type state struct {
		phase                Phase
		rv                   int64
		keys, lost, pending  int
		resamples, resampled int
		message              string
	}
	states := func() []state {
		var out []state
		for _, r := range reqs {
			out = append(out, state{r.Phase, r.ResourceVersion, len(r.SessionKeys), r.Lost, r.pending,
				len(r.resampleSlots), r.Resampled, r.Message})
		}
		return out
	}
	peak := 0
	step := func() {
		c.Eng.Step()
		inUse := 0
		for i := int32(0); i < c.slots.n; i++ {
			if c.slots.at(i).node != nil {
				inUse++
			}
		}
		if inUse+len(c.slots.free) != int(c.slots.n) {
			t.Fatalf("%d slots in use and %d free, of %d made", inUse, len(c.slots.free), c.slots.n)
		}
		peak = max(peak, inUse)
	}
	isFree := func(ls *sessionSlot) bool {
		return slices.ContainsFunc(c.slots.free, func(i int32) bool { return c.slots.at(i) == ls })
	}

	for c.Eng.Now() < 200*simtime.Millisecond {
		step()
	}
	crashed, _ := c.Node("node-3")
	doomed := openSlots(c, crashed)
	if len(doomed) < 3 {
		t.Fatalf("node-3 holds %d sessions at the crash, want at least 3", len(doomed))
	}
	keys := make([]string, len(doomed))
	for i, ls := range doomed {
		keys[i] = ls.key
	}
	c.crashNode(crashed)

	fired := 0
	for fired < len(doomed) && c.Eng.Now() < 2*simtime.Second {
		before := states()
		step()
		for i, ls := range doomed {
			if keys[i] == "" {
				continue // already fired
			}
			if !isFree(ls) {
				if ls.key != keys[i] || !ls.closed || !ls.lost {
					t.Fatalf("crash-closed slot of %q reused before its timer fired: holds %q", keys[i], ls.key)
				}
				continue
			}
			if after := states(); !slices.Equal(before, after) {
				t.Fatalf("firing the crash-closed slot of %q changed a request:\nbefore %+v\nafter  %+v", keys[i], before, after)
			}
			keys[i] = ""
			fired++
		}
	}

	if fired != len(doomed) {
		t.Fatalf("%d of %d crash-closed slots freed by 2 s", fired, len(doomed))
	}
	for (!allTerminal(reqs) || c.Eng.Now() < 5*simtime.Second) && c.Eng.Now() < 20*simtime.Second {
		step()
	}
	if len(reqs) != 12 {
		t.Fatalf("%d requests filed, want 12", len(reqs))
	}
	if len(c.slots.free) != int(c.slots.n) {
		t.Fatalf("drained run left %d of %d slots off the free list", int(c.slots.n)-len(c.slots.free), c.slots.n)
	}
	if int(c.slots.n) != peak {
		t.Fatalf("table made %d slots for a peak of %d sessions in flight", c.slots.n, peak)
	}
	opened := 0
	for _, r := range reqs {
		opened += len(r.usedNodes)
	}
	if opened <= peak {
		t.Fatalf("%d sessions opened on %d slots: no slot was reused", opened, peak)
	}
}

// allTerminal reports whether every request has reached a terminal phase.
func allTerminal(reqs []*TraceRequest) bool {
	for _, r := range reqs {
		if !r.Phase.Terminal() {
			return false
		}
	}
	return true
}

// TestAttemptLedgersForgetSucceededKeys pins the attempt ledgers'
// lifetime: a key is held only while it keeps failing, so after many
// successful writes both stores' ledgers are empty; and a key that fails
// k times still rolls attempts 0..k, the same fault sequence as when the
// ledger kept every key.
func TestAttemptLedgersForgetSucceededKeys(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 1, PutFailProb: 0.5, InsertFailProb: 0.5})
	o := NewObjectStore()
	o.UseFaults(inj)
	d := NewDataStore()
	d.UseFaults(inj)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("sessions/r-%d/node-0", i)
		for o.PutBatch(key, []string{key}, [][]byte{[]byte(key)}) != nil {
		}
		for d.Insert(key, Row{Session: key}) != nil {
		}
	}
	if st := inj.Stats(); o.Puts() != 200 || d.Len() != 200 || st.PutFailures == 0 || st.InsertFailures == 0 {
		t.Fatalf("puts %d rows %d failures %d/%d", o.Puts(), d.Len(), st.PutFailures, st.InsertFailures)
	}
	if n := len(o.attempts) + len(d.attempts); n != 0 {
		t.Fatalf("ledgers hold %d keys after every write landed", n)
	}

	// Pinned rolls (seed 1, probability 0.5): the put of
	// "sessions/pin/node-1" and the insert of "pin/node-3" each fail on
	// attempts 0 and 1 and land on attempt 2.
	const putKey, insKey = "sessions/pin/node-1", "pin/node-3"
	var got []string
	for {
		err := o.PutBatch(putKey, []string{putKey}, [][]byte{{1}})
		got = append(got, fmt.Sprint(err))
		if err == nil {
			break
		}
	}
	for {
		err := d.Insert(insKey, Row{Session: insKey})
		got = append(got, fmt.Sprint(err))
		if err == nil {
			break
		}
	}
	want := []string{
		`faults: transient object-store error on "sessions/pin/node-1" (attempt 0)`,
		`faults: transient object-store error on "sessions/pin/node-1" (attempt 1)`,
		`<nil>`,
		`faults: transient structured-store error on "pin/node-3" (attempt 0)`,
		`faults: transient structured-store error on "pin/node-3" (attempt 1)`,
		`<nil>`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fault sequence:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if n := len(o.attempts) + len(d.attempts); n != 0 {
		t.Fatalf("ledgers hold %d keys after the pinned keys landed", n)
	}
}
