package decode

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"slices"
	"strconv"
	"testing"

	"exist/internal/binary"
	"exist/internal/hotbench"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/node"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
)

// decodeGolden is the SHA-256 of hashDecode over the fixtures of
// TestDecodeMatchesReference, recorded before the read path stopped
// materializing per-thread streams eagerly. Any change to a decoded
// count, profile, PTWRITE, error or thread stream moves it.
const decodeGolden = "b7e1f110b0561087431516db0169d96782fc63dd81d0b85d4b3416247b7e1e04"

// TestDecodeMatchesReference pins the decoder's whole output, aggregates
// and per-thread streams, on the decodeFixtures sessions. Decode on 1, 2
// and 8 workers must produce the recorded digest.
func TestDecodeMatchesReference(t *testing.T) {
	fixtures := decodeFixtures(t)
	for _, w := range workerCounts {
		h := sha256.New()
		for i, f := range fixtures {
			s := decodeSession(f.sess, f.prog, w)
			if s.Events == 0 {
				t.Fatalf("fixture %d decoded no events", i)
			}
			hashDecode(h, s)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != decodeGolden {
			t.Errorf("decode digest on %d workers %s, want %s", w, got, decodeGolden)
		}
	}
}

// fixture is a session and the program it decodes against.
type fixture struct {
	sess *trace.Session
	prog *binary.Program
}

// decodeFixtures returns five sessions: the single-core hotbench session,
// the same stream fanned out over four cores, one walker-backed Search1
// EXIST window captured by a node, the first stream torn, and a two-core
// session of three small fuzzProgram streams.
func decodeFixtures(t *testing.T) []fixture {
	t.Helper()
	var fixtures []fixture
	p1 := hotbench.Program(1)
	fixtures = append(fixtures, fixture{hotbench.Session(p1, 1, 2_000_000), p1})

	p2 := hotbench.Program(2)
	base := hotbench.Session(p2, 2, 1_000_000)
	multi := *base
	for core := 1; core < 4; core++ {
		ct := base.Cores[0]
		ct.Core = core
		multi.Cores = append(multi.Cores, ct)
	}
	fixtures = append(fixtures, fixture{&multi, p2})

	search, err := workload.ByName("Search1")
	if err != nil {
		t.Fatal(err)
	}
	prog := search.Synthesize(7)
	res, err := node.Run(node.Spec{
		Cores: 4, Timeslice: 500 * simtime.Microsecond, Seed: 7,
		Workload: search, Walker: true, Scale: trace.SpaceScale, Prog: prog,
		Backend: "EXIST", Warmup: 20 * simtime.Millisecond, Dur: 60 * simtime.Millisecond,
		Drain: 10 * simtime.Millisecond, KeepSession: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Session == nil || len(res.Session.Cores) < 2 {
		t.Fatal("Search1 window captured no multi-core session")
	}
	fixtures = append(fixtures, fixture{res.Session, prog})

	// The first stream again, torn at a few fixed offsets, so the digest
	// also covers desync errors and PSB resyncs.
	torn := *fixtures[0].sess
	data := append([]byte(nil), torn.Cores[0].Data...)
	for i := 1; i < 8; i++ {
		data[i*len(data)/8] ^= 0x5a
	}
	torn.Cores = []trace.CoreTrace{{Core: 0, Data: data}}
	fixtures = append(fixtures, fixture{&torn, p1})

	// fuzzProgram streams: a walk, a stream denser than its arena
	// window, and a segment with no events for a thread of its own.
	fp := fuzzProgram()
	var empty []byte
	empty = ipt.AppendTSC(empty, 300)
	empty = ipt.AppendTIP(empty, ipt.PktTIPPGE, fp.Blocks[0].Addr)
	empty = ipt.AppendTIP(empty, ipt.PktTIPPGD, 0)
	small := &trace.Session{Scale: 1, Cores: []trace.CoreTrace{
		{Core: 0, Data: fuzzWalk(fp)},
		{Core: 1, Data: append(fuzzDense(fp, 16), empty...)},
	}}
	small.Switches.Add(kernel.SwitchRecord{TS: 0, CPU: 0, PID: 1, TID: 1, Op: kernel.OpIn})
	small.Switches.Add(kernel.SwitchRecord{TS: 0, CPU: 1, PID: 1, TID: 2, Op: kernel.OpIn})
	small.Switches.Add(kernel.SwitchRecord{TS: 200, CPU: 1, PID: 1, TID: 9, Op: kernel.OpIn})
	fixtures = append(fixtures, fixture{small, fp})
	return fixtures
}

// TestProfileMatchesStreamDecode checks the two decode modes against each
// other on the decodeFixtures sessions, a seven-core mixed session and
// the FuzzDecodeStream seeds: the profile-only Decode and the decode with
// events kept that ByThread runs agree on every aggregate and on the
// order of Errors, and Events is the streams' total length.
func TestProfileMatchesStreamDecode(t *testing.T) {
	fixtures := decodeFixtures(t)
	fp := fuzzProgram()
	fixtures = append(fixtures, fixture{mixedSession(fp), fp})
	for _, seed := range fuzzSeeds(fp) {
		fixtures = append(fixtures, fixture{fuzzSession(seed.data, seed.split, seed.flags), fp})
	}
	for i, f := range fixtures {
		for _, w := range workerCounts {
			prof := decodeSession(f.sess, f.prog, w)
			full, _ := decodeCores(&prof.src, true)
			if got, want := profileDigest(prof), profileDigest(full); got != want {
				t.Fatalf("fixture %d on %d workers: profile decode diverged from the stream decode: %d vs %d events, errors %q vs %q",
					i, w, prof.Events, full.Events, prof.Errors, full.Errors)
			}
			if n := streamLen(prof.ByThread()); n != prof.Events {
				t.Fatalf("fixture %d on %d workers: %d events, streams hold %d", i, w, prof.Events, n)
			}
		}
	}
}

// streamLen is the summed length of the streams.
func streamLen(streams map[int32][]trace.Event) int64 {
	var n int64
	for _, evs := range streams {
		n += int64(len(evs))
	}
	return n
}

// digest is the hex SHA-256 of hashDecode(r): equal digests mean equal
// aggregates and equal thread streams.
func digest(r *Result) string {
	h := sha256.New()
	hashDecode(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// profileDigest is the hex SHA-256 of hashProfile(r): equal digests mean
// equal aggregates, Errors in the same order.
func profileDigest(r *Result) string {
	h := sha256.New()
	hashProfile(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// hashDecode writes hashProfile(r) and then each thread's stream in TID
// order.
func hashDecode(h hash.Hash, r *Result) {
	hashProfile(h, r)
	put := putter(h)
	streams := r.ByThread()
	tids := make([]int32, 0, len(streams))
	for tid := range streams {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	put(int64(len(tids)))
	for _, tid := range tids {
		evs := streams[tid]
		put(int64(tid))
		put(int64(len(evs)))
		for _, ev := range evs {
			taken := int64(0)
			if ev.Taken {
				taken = 1
			}
			put(int64(ev.TID))
			put(int64(ev.Block))
			put(int64(ev.Target))
			put(int64(ev.Kind)<<1 | taken)
		}
	}
}

// hashProfile writes every aggregate of r, maps in key order, and the
// Errors in order.
func hashProfile(h hash.Hash, r *Result) {
	put := putter(h)
	put(r.Events)
	put(r.Blocks)
	put(r.BytesDecoded)
	put(r.Resyncs)
	for _, n := range r.CatHits {
		put(n)
	}
	for c := range r.MemOps {
		for _, n := range r.MemOps[c] {
			put(n)
		}
	}
	fns := make([]int32, 0, len(r.FuncEntries))
	for fn := range r.FuncEntries {
		fns = append(fns, fn)
	}
	slices.Sort(fns)
	put(int64(len(fns)))
	for _, fn := range fns {
		put(int64(fn))
		put(r.FuncEntries[fn])
	}
	put(int64(len(r.PTWrites)))
	for _, w := range r.PTWrites {
		put(int64(w.TID))
		put(int64(w.Val))
	}
	put(int64(len(r.Errors)))
	for _, e := range r.Errors {
		h.Write([]byte(e))
		h.Write([]byte{0})
	}
}

// putter returns a writer of decimal int64s to h, each followed by a
// space.
func putter(h hash.Hash) func(int64) {
	var buf []byte
	return func(v int64) {
		buf = strconv.AppendInt(buf[:0], v, 10)
		h.Write(append(buf, ' '))
	}
}
