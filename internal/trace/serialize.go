package trace

import (
	"fmt"

	"exist/internal/kernel"
	"exist/internal/parallel"
	"exist/internal/wire"
)

// Wire format: EXIST's data path uploads raw sessions to the object store
// (OSS) instead of writing node-local files (§4 of the paper); the decoder
// later fetches them together with the program binary.
//
// One encoding exists on the wire: the v2 layout (magic "EXI2",
// serialize_v2.go) with varint/delta encoding, a string dictionary,
// per-core block framing and packed core payloads. Marshal writes it and
// UnmarshalSession reads it; any other magic is rejected.

const sessionMagicV2 = 0x45584932 // "EXI2"

// V1Size returns the flat fixed-width size of the session: every string
// and payload length-prefixed with a u32, every scalar at full width,
// core payloads and switch records uncompressed. It is the
// "v1-equivalent bytes" figure the ledgers report next to the bytes
// actually shipped (cluster Uploads.V1Bytes, existdecode -stats, the
// datapath table, the benchmark's trace.v1_mb).
func V1Size(s *Session) int {
	n := 4 // magic
	n += 4 + len(s.ID)
	n += 4 + len(s.Node)
	n += 4 + len(s.Workload)
	n += 4 + 8 + 8 + 8 + 4 // pid, start, end, scale, core count
	for i := range s.Cores {
		n += 4 + 1 + 8 + 4 + len(s.Cores[i].Data)
	}
	n += 4 + len(s.Switches.Records)*kernel.RecordSize
	return n
}

// UnmarshalSession parses a session written by Marshal. Slices in the
// result never alias data: core payloads are unpacked into fresh buffers,
// on CoreWorkers workers.
func UnmarshalSession(data []byte) (*Session, error) {
	return unmarshalSession(data, 0)
}

// unmarshalSession is UnmarshalSession with the core payloads unpacked on
// up to workers workers (workers <= 0: CoreWorkers of their size). The
// session or error does not depend on the worker count.
func unmarshalSession(data []byte, workers int) (*Session, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("trace: session too short (%d bytes)", len(data))
	}
	if magic := wire.U32(data); magic != sessionMagicV2 {
		return nil, fmt.Errorf("trace: bad session magic %#x", magic)
	}
	return unmarshalV2(data, workers)
}

// fanOutBytes is the core payload size below which the per-core stages of
// the read path stay on the calling goroutine. Timed on a shared 2-vCPU
// x86 host at GOMAXPROCS=2, four equal cores: two workers break even with
// one at 8 KiB for Marshal, UnmarshalSession and Decode alike, and are
// 15-40% faster from 20 KiB up. The traced sessions of the benchmarks
// hold about 20 KiB (Agent, seven cores) or 160-300 KiB (Search1).
const fanOutBytes = 16 << 10

// CoreWorkers returns how many workers the per-core stages of the read
// path (Marshal, UnmarshalSession, decode.Decode) split a session with
// rawBytes of core payload over: every core the runtime schedules on
// (GOMAXPROCS), or 1 for a session below fanOutBytes.
func CoreWorkers(rawBytes int64) int {
	if rawBytes < fanOutBytes {
		return 1
	}
	return parallel.Workers(0)
}
