// Package rows is the hot-path row table: every row that existbench
// -benchjson records and -benchcheck gates, and that BenchmarkRows times
// under go test -bench. A row is declared once, as a name, a fixture
// constructor and the row's pre-PR baseline; Fixture.Bench is the one
// measuring loop both runners use.
//
// The table is a package apart from hotbench because its fixtures import
// the cluster and the decoder, and the decoder's own tests import
// hotbench: hotbench keeps the trace-pipeline fixtures those tests share.
package rows

import (
	"testing"

	"exist/internal/binary"
	"exist/internal/coverage"
	"exist/internal/decode"
	"exist/internal/hotbench"
	"exist/internal/service"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Result is one measurement of a row, as BENCH_harness.json records it.
type Result struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// Row is one hot path.
type Row struct {
	Name string
	// New builds the row's fixture; it runs outside any timer.
	New func() Fixture
	// PrePR is the row measured on the same fixture at the commit before
	// the PR that optimized it, kept so the optimization headroom stays
	// visible (the convention of Table 3's publishedSOTA rows). It is the
	// zero Result for a row no PR has optimized.
	PrePR Result
}

// Fixture is a built row, ready to be timed.
type Fixture struct {
	// Op is one timed operation. It panics if its result fails the
	// row's sanity check.
	Op func()
	// Bytes is the volume one op processes, for MB/s; 0 reports none.
	Bytes int64
	// Untimed, when set, runs with the timer stopped before the first op
	// of a run and then before every Every-th op (every op when Every is
	// 0).
	Untimed func()
	Every   int
}

// Bench times f.Op b.N times. It is the measuring loop of both
// existbench (through testing.Benchmark) and BenchmarkRows.
func (f Fixture) Bench(b *testing.B) {
	b.SetBytes(f.Bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Untimed != nil && i%max(f.Every, 1) == 0 {
			b.StopTimer()
			f.Untimed()
			b.StartTimer()
		}
		f.Op()
	}
}

// All returns the row table in measuring order.
func All() []Row { return table }

// PrePR returns the pre-PR baselines of the rows that record one, by row
// name: the pre_pr_baseline object of -benchjson.
func PrePR() map[string]Result {
	out := map[string]Result{}
	for _, row := range table {
		if row.PrePR != (Result{}) {
			out[row.Name] = row.PrePR
		}
	}
	return out
}

var table = []Row{
	// Decoder hot path: packet parse, sidecar lookup, CFG walk and
	// segment re-serialization on a stream with thread migrations.
	// Pre-PR: before the parallel experiment harness.
	{Name: "decode_hot", New: decodeHot,
		PrePR: Result{NsPerOp: 22_900_000, AllocsPerOp: 1195, BytesPerOp: 15_402_504}},
	// Cluster-level coverage merge (RCO's augmentation): ten workers'
	// decodes of one program folded into one profile per op. Pre-PR:
	// before the profile-only merge, every worker's per-thread streams
	// appended into one map.
	{Name: "merge_hot", New: mergeHot,
		PrePR: Result{NsPerOp: 8_885_681, AllocsPerOp: 53, BytesPerOp: 19_499_556}},
	// Walker→tracer encode path: batched emission with packed TNT
	// directions, staged output into a ToPA chain. Pre-PR: as decode_hot.
	{Name: "encode_hot", New: encodeHot,
		PrePR: Result{NsPerOp: 21_900_000, AllocsPerOp: 20, BytesPerOp: 67_111_138}},
	// Walker segment loop end to end, one 2 ms window of the canned
	// 4-core machine per op. Pre-PR: per-event closure emission,
	// per-packet output and a container/heap event queue.
	{Name: "sched_hot", New: schedHot,
		PrePR: Result{NsPerOp: 63_196, AllocsPerOp: 178, BytesPerOp: 9_025}},
	// Tracer packet generation on recorded walker batches into a ring
	// ToPA. Pre-PR: as sched_hot.
	{Name: "tracer_hot", New: tracerHot,
		PrePR: Result{NsPerOp: 1_478_338}},
	// The fleet's in-phase heartbeats, one period per op. Pre-PR: one
	// heap entry per pending timer, before same-instant runs.
	{Name: "engine_hot", New: engineHot,
		PrePR: Result{NsPerOp: 20_733_180}},
	// A machine node's chained events, 10 ms of simulated time per op.
	{Name: "engine_chain", New: engineChain},
	// One Lite session opened, finished and uploaded on a warm cluster.
	// Pre-PR: string-keyed in-flight and used-node maps, copied blobs and
	// an append-only watch buffer.
	{Name: "lite_session", New: liteSession,
		PrePR: Result{NsPerOp: 8_256, AllocsPerOp: 25, BytesPerOp: 2_681}},
	// One 1-blob PutBatch of a fresh key into a warm store.
	// Pre-PR: a byte-ledger probe before each blob write and the batch
	// key's attempt ledger probed on every put.
	{Name: "store_put", New: storePut,
		PrePR: Result{NsPerOp: 427}},
	// One simulated second of a warm 100k-node Lite fleet with faults and
	// no requests. Pre-PR: before the lease sweep and node-fault
	// timetable, one heartbeat timer and one crash and one churn closure
	// chain per node.
	{Name: "node_liveness", New: nodeLiveness,
		PrePR: Result{NsPerOp: 43_227_120, AllocsPerOp: 5858, BytesPerOp: 184_625}},
	// One 6-node walker scenario per op, its node engines advanced on one
	// and on two workers.
	{Name: "cluster_nodes_j1", New: clusterNodes(1)},
	{Name: "cluster_nodes_j2", New: clusterNodes(2)},
	// Session wire format, normalized to v1-equivalent bytes so MB/s
	// tracks the session size rather than the compressed blob.
	{Name: "marshal_hot_packed", New: marshalHot},
	{Name: "unmarshal_hot_packed", New: unmarshalHot},
	// The service model's closed loop as fig14 runs it: the ComposePost
	// chain under 48 clients, one simulated second per op.
	{Name: "service_chain", New: serviceChain},
}

// budget is the walk length, in cycles, of the trace-pipeline sessions.
const budget = 4_000_000

// check panics with a row's failed sanity check. It takes no format
// arguments: boxing them would cost the op an allocation even when the
// check passes.
func check(ok bool, msg string) {
	if !ok {
		panic("rows: " + msg)
	}
}

// must panics with err, if any.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// WireSession is the session the decode and wire-format rows run on, and
// whose sizes -benchjson records as datapath: a 4M-cycle walk of the
// hotbench program traced by the PT model.
func WireSession() (*binary.Program, *trace.Session) {
	prog := hotbench.Program(1)
	return prog, hotbench.Session(prog, 1, budget)
}

func decodeHot() Fixture {
	prog, sess := WireSession()
	var bytes int64
	for _, c := range sess.Cores {
		bytes += int64(len(c.Data))
	}
	op := func() {
		res := decode.Decode(sess, prog)
		check(res.Events > 0, "decode_hot decoded no events")
	}
	op() // builds the program's lazy address and entry indexes
	return Fixture{Op: op, Bytes: bytes}
}

// merge_hot merges mergeWorkers decodes per op, each of a 1M-cycle walk
// from its own seed.
const mergeWorkers = 10

func mergeHot() Fixture {
	prog := hotbench.Program(1)
	var decs []*decode.Result
	for w := uint64(1); w <= mergeWorkers; w++ {
		decs = append(decs, decode.Decode(hotbench.Session(prog, w, 1_000_000), prog))
	}
	return Fixture{Op: func() {
		check(coverage.Merge(decs).DistinctFuncs > 0, "merge_hot merged no functions")
	}}
}

func encodeHot() Fixture {
	prog := hotbench.Program(2)
	return Fixture{Op: func() {
		check(hotbench.EncodeOnce(prog, 2, budget) > 0, "encode_hot produced no trace bytes")
	}, Bytes: hotbench.EncodeOnce(prog, 2, budget)}
}

func schedHot() Fixture {
	s := hotbench.NewSchedBench(1)
	return Fixture{Op: func() { s.RunWindow() }, Bytes: s.RunWindow()}
}

func tracerHot() Fixture {
	batches := hotbench.Events(hotbench.Program(1), 1, 2_000_000)
	tr := hotbench.NewHotTracer(1 << 20)
	return Fixture{Op: func() { hotbench.TracerHotOnce(tr, batches) }, Bytes: hotbench.TracerHotOnce(tr, batches)}
}

func marshalHot() Fixture {
	_, sess := WireSession()
	return Fixture{Op: func() { sess.Marshal() }, Bytes: int64(trace.V1Size(sess))}
}

func unmarshalHot() Fixture {
	_, sess := WireSession()
	blob := sess.Marshal()
	return Fixture{Op: func() {
		_, err := trace.UnmarshalSession(blob)
		must(err)
	}, Bytes: int64(trace.V1Size(sess))}
}

// The service_chain op: fig14's closed-loop client population over one
// simulated second.
const (
	serviceClients = 48
	serviceSpan    = simtime.Second
)

func serviceChain() Fixture {
	spec := service.ComposePostChain(1)
	return Fixture{Op: func() {
		res := service.RunClosedLoop(spec, serviceClients, serviceSpan, nil)
		check(res.Completed > 0, "service_chain completed no requests")
	}}
}
