package trace

import (
	"fmt"
	"math"
	"sync"

	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/parallel"
	"exist/internal/simtime"
	"exist/internal/wire"
)

// v2 session layout (magic "EXI2"): a sequence of self-framed blocks
//
//	[tag u8][len uvarint][body ...]
//
// terminated by an end block (tag 0, len 0). Unknown tags are skipped by
// their length, so readers tolerate future additions. Block bodies:
//
//	tag 1, header (first block):
//	    dictN uvarint, then dictN strings (uvarint len + bytes);
//	    ID/Node/Workload as uvarint dictionary indexes; pid zigzag;
//	    start zigzag; end as zigzag delta from start; scale as fixed
//	    f64 bits; core count uvarint.
//	tag 2, core (one per core, in order):
//	    core id as zigzag delta from the previous core id; flags u8
//	    (1 wrapped, 2 stopped); dropped bytes zigzag; encoding u8
//	    (always 1, packed); the unpacked length uvarint; the packed
//	    payload (ipt.PackStream) is the rest of the body.
//	tag 3, switches:
//	    record count uvarint; op mode u8 (0 bitpacked, 1 raw); then
//	    four zigzag-delta columns (TS, CPU, PID, TID) and the op
//	    column, one bit per record when every op fits.
//
// The columnar split matters: within a column consecutive values are
// near each other (timestamps increase, CPU/PID/TID repeat), so the
// deltas stay in the 1-byte varint range.

const (
	blockEnd      = 0
	blockHeader   = 1
	blockCore     = 2
	blockSwitches = 3
)

// coreEncPacked is the only core payload encoding. The byte stays in the
// core block so the format can grow another encoding without a new magic.
const coreEncPacked = 1

// Marshal serializes the session in the v2 layout with packed core
// payloads, the one encoding the data path writes and reads. The cores
// are packed on CoreWorkers workers, and the returned slice is exactly
// as long as its capacity.
func (s *Session) Marshal() []byte { return s.marshal(CoreWorkers(s.TotalBytes())) }

// marshal is Marshal with the cores packed on up to workers workers. The
// bytes do not depend on the worker count.
func (s *Session) marshal(workers int) []byte {
	// Each core block's body, its fields and then its packed payload, is
	// built in the core's own window of one arena. A window holds the raw
	// payload plus what the fields and verbatim chunks of garbage add; a
	// body that outgrows it spills to an array of its own.
	cores := make([][]byte, len(s.Cores))
	n := 0
	for i := range s.Cores {
		n += coreWindow(len(s.Cores[i].Data))
	}
	arena := make([]byte, n)
	for i := range s.Cores {
		w := coreWindow(len(s.Cores[i].Data))
		cores[i], arena = arena[:0:w], arena[w:]
	}
	parallel.ForEach(len(s.Cores), workers, func(i int) {
		prevCore := 0
		if i > 0 {
			prevCore = s.Cores[i-1].Core
		}
		cores[i] = ipt.PackStream(appendV2CoreMeta(cores[i], &s.Cores[i], prevCore), s.Cores[i].Data)
	})

	// The header and switch-log bodies share one buffer; hdr and sw are
	// its two halves.
	recs := s.Switches.Records
	body := make([]byte, 0, 64+len(s.ID)+len(s.Node)+len(s.Workload)+12*len(recs))
	body = appendV2Header(body, s)
	hdr := body[:len(body):len(body)]
	sw := appendV2Switches(body, recs)[len(hdr):]

	// Every block length is known now, so the blob is allocated once at
	// its exact size.
	size := 4 + blockSize(len(hdr)) + blockSize(0)
	for _, c := range cores {
		size += blockSize(len(c))
	}
	if len(sw) > 0 {
		size += blockSize(len(sw))
	}
	out := make([]byte, 0, size)
	out = wire.AppendU32(out, sessionMagicV2)
	out = appendBlock(out, blockHeader, hdr)
	for _, c := range cores {
		out = appendBlock(out, blockCore, c)
	}
	if len(sw) > 0 {
		out = appendBlock(out, blockSwitches, sw)
	}
	return appendBlock(out, blockEnd, nil)
}

// coreWindow is the arena room Marshal gives the block of a core with n
// payload bytes.
func coreWindow(n int) int { return n + n/32 + 48 }

// appendV2Header appends the header block body with its string
// dictionary. ID/Node/Workload often share text across sessions of one
// workload; within one session the dictionary mostly removes duplicate
// strings and fixed-width length prefixes.
func appendV2Header(dst []byte, s *Session) []byte {
	dict := make([]string, 0, 3)
	idx := func(str string) uint64 {
		for i, d := range dict {
			if d == str {
				return uint64(i)
			}
		}
		dict = append(dict, str)
		return uint64(len(dict) - 1)
	}
	iID, iNode, iWl := idx(s.ID), idx(s.Node), idx(s.Workload)
	dst = wire.AppendUvarint(dst, uint64(len(dict)))
	for _, d := range dict {
		dst = wire.AppendUvarint(dst, uint64(len(d)))
		dst = append(dst, d...)
	}
	dst = wire.AppendUvarint(dst, iID)
	dst = wire.AppendUvarint(dst, iNode)
	dst = wire.AppendUvarint(dst, iWl)
	dst = wire.AppendZigzag(dst, int64(s.PID))
	dst = wire.AppendZigzag(dst, int64(s.Start))
	dst = wire.AppendZigzag(dst, int64(s.End)-int64(s.Start))
	dst = wire.AppendU64(dst, math.Float64bits(s.Scale))
	return wire.AppendUvarint(dst, uint64(len(s.Cores)))
}

// appendV2CoreMeta appends the fields of c's core block that precede its
// packed payload; prevCore is the previous block's core id.
func appendV2CoreMeta(dst []byte, c *CoreTrace, prevCore int) []byte {
	dst = wire.AppendZigzag(dst, int64(c.Core)-int64(prevCore))
	flags := byte(0)
	if c.Wrapped {
		flags |= 1
	}
	if c.Stopped {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = wire.AppendZigzag(dst, c.DroppedBytes)
	dst = append(dst, coreEncPacked)
	return wire.AppendUvarint(dst, uint64(len(c.Data)))
}

// appendV2Switches appends the columnar switch-log block body. An empty
// log appends nothing, and Marshal writes no block for it.
func appendV2Switches(dst []byte, recs []kernel.SwitchRecord) []byte {
	if len(recs) == 0 {
		return dst
	}
	dst = wire.AppendUvarint(dst, uint64(len(recs)))
	opMode := byte(0)
	for _, rec := range recs {
		if rec.Op > 1 {
			opMode = 1
			break
		}
	}
	dst = append(dst, opMode)
	prev := int64(0)
	for _, rec := range recs {
		dst = wire.AppendZigzag(dst, int64(rec.TS)-prev)
		prev = int64(rec.TS)
	}
	prev = 0
	for _, rec := range recs {
		dst = wire.AppendZigzag(dst, int64(rec.CPU)-prev)
		prev = int64(rec.CPU)
	}
	prev = 0
	for _, rec := range recs {
		dst = wire.AppendZigzag(dst, int64(rec.PID)-prev)
		prev = int64(rec.PID)
	}
	prev = 0
	for _, rec := range recs {
		dst = wire.AppendZigzag(dst, int64(rec.TID)-prev)
		prev = int64(rec.TID)
	}
	if opMode == 1 {
		for _, rec := range recs {
			dst = append(dst, byte(rec.Op))
		}
		return dst
	}
	var acc byte
	for i, rec := range recs {
		acc |= byte(rec.Op) << (i & 7)
		if i&7 == 7 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if len(recs)&7 != 0 {
		dst = append(dst, acc)
	}
	return dst
}

// blockSize is the framed size of a block with an n-byte body.
func blockSize(n int) int { return 1 + wire.UvarintLen(uint64(n)) + n }

// appendBlock appends one framed block.
func appendBlock(out []byte, tag byte, body []byte) []byte {
	out = append(out, tag)
	out = wire.AppendUvarint(out, uint64(len(body)))
	return append(out, body...)
}

// unmarshalV2 parses a v2 blob. One serial pass walks the block framing,
// parses the header and switch log and reads each core block's fields;
// unpackCores then unpacks the core payloads on up to workers workers
// (workers <= 0: CoreWorkers of their unpacked size). Either way the
// error is the one of the first failing block.
func unmarshalV2(data []byte, workers int) (*Session, error) {
	r := wire.NewReader(data)
	r.U32() // magic, already checked
	s := &Session{}
	sawHeader := false
	var raw int64
	// err is the first failure outside the core payloads. The framing
	// pass stops there, so every core it read precedes it, and a failing
	// payload among them is the first failing block.
	var err error
	for err == nil {
		tag := r.U8()
		n := r.Uvarint()
		if err = r.Err(); err != nil {
			break
		}
		if tag == blockEnd {
			if n != 0 {
				err = fmt.Errorf("trace: v2 end block with length %d", n)
			} else if !sawHeader {
				err = fmt.Errorf("trace: v2 session missing header block")
			}
			break
		}
		body := r.Bytes(int(n))
		if err = r.Err(); err != nil {
			break
		}
		switch tag {
		case blockHeader:
			if sawHeader {
				err = fmt.Errorf("trace: duplicate v2 header block")
				break
			}
			sawHeader = true
			err = parseV2Header(s, body)
		case blockCore:
			if !sawHeader {
				err = fmt.Errorf("trace: v2 core block before header")
				break
			}
			if len(s.Cores) >= cap(s.Cores) {
				err = fmt.Errorf("trace: more core blocks than declared %d", cap(s.Cores))
				break
			}
			prev := 0
			if len(s.Cores) > 0 {
				prev = s.Cores[len(s.Cores)-1].Core
			}
			var ct CoreTrace
			var rawLen int
			if ct, rawLen, err = parseV2Core(body, prev); err == nil {
				s.Cores = append(s.Cores, ct)
				raw += int64(rawLen)
			}
		case blockSwitches:
			s.Switches, err = parseV2Switches(body)
		default:
			// Unknown block: skipped (already consumed by Bytes).
		}
	}
	if workers <= 0 {
		workers = CoreWorkers(raw)
	}
	if cerr := unpackCores(s.Cores, workers); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// parseV2Header fills the session identity fields and reserves (but does
// not populate) the core slice, capping the reservation by what the
// remaining input could plausibly hold.
func parseV2Header(s *Session, body []byte) error {
	r := wire.NewReader(body)
	dictN := r.Uvarint()
	if r.Err() == nil && dictN > uint64(r.Len()) {
		return fmt.Errorf("trace: v2 dictionary count %d exceeds remaining %d", dictN, r.Len())
	}
	if err := r.Err(); err != nil {
		return err
	}
	dict := make([]string, 0, dictN)
	for i := uint64(0); i < dictN; i++ {
		n := r.Uvarint()
		if r.Err() == nil && n > uint64(r.Len()) {
			return fmt.Errorf("trace: v2 dictionary string %d exceeds remaining %d", n, r.Len())
		}
		dict = append(dict, r.String(int(n)))
		if err := r.Err(); err != nil {
			return err
		}
	}
	get := func(idx uint64) (string, error) {
		if idx >= uint64(len(dict)) {
			return "", fmt.Errorf("trace: v2 string index %d beyond dictionary %d", idx, len(dict))
		}
		return dict[idx], nil
	}
	var err error
	if s.ID, err = get(r.Uvarint()); err != nil {
		return err
	}
	if s.Node, err = get(r.Uvarint()); err != nil {
		return err
	}
	if s.Workload, err = get(r.Uvarint()); err != nil {
		return err
	}
	s.PID = int32(r.Zigzag())
	start := r.Zigzag()
	s.Start = simtime.Time(start)
	s.End = simtime.Time(start + r.Zigzag())
	s.Scale = math.Float64frombits(r.U64())
	nCores := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if nCores > 1<<16 {
		return fmt.Errorf("trace: implausible core count %d", nCores)
	}
	s.Cores = make([]CoreTrace, 0, nCores)
	return nil
}

// parseV2Core reads one core block's fields. The payload stays packed:
// ct.Data holds the block's tail, the unpacked length and the packed
// bytes, until unpackCore replaces it. rawLen is the unpacked length.
func parseV2Core(body []byte, prevCore int) (ct CoreTrace, rawLen int, err error) {
	r := wire.NewReader(body)
	ct.Core = prevCore + int(r.Zigzag())
	flags := r.U8()
	ct.Wrapped = flags&1 != 0
	ct.Stopped = flags&2 != 0
	ct.DroppedBytes = r.Zigzag()
	enc := r.U8()
	tail := body[len(body)-r.Len():]
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return ct, 0, err
	}
	if enc != coreEncPacked {
		return ct, 0, fmt.Errorf("trace: unknown v2 core encoding %d", enc)
	}
	if n > ipt.MaxUnpackedCoreBytes {
		return ct, 0, fmt.Errorf("trace: v2 core declares %d unpacked bytes", n)
	}
	ct.Data = tail
	return ct, int(n), nil
}

// unpackCores unpacks every core's payload in place on up to workers
// workers and returns the error of the first failing core, in core
// order. The serial loop stops there; the fan-out finishes every core and
// keeps the lowest failing index.
func unpackCores(cores []CoreTrace, workers int) error {
	if workers <= 1 || len(cores) <= 1 {
		for i := range cores {
			if err := unpackCore(&cores[i]); err != nil {
				return err
			}
		}
		return nil
	}
	first := struct {
		sync.Mutex
		i   int
		err error
	}{i: len(cores)}
	parallel.ForEach(len(cores), workers, func(i int) {
		if err := unpackCore(&cores[i]); err != nil {
			first.Lock()
			if i < first.i {
				first.i, first.err = i, err
			}
			first.Unlock()
		}
	})
	return first.err
}

// unpackCore replaces ct.Data, a block tail parseV2Core left, with the
// unpacked payload.
func unpackCore(ct *CoreTrace) error {
	r := wire.NewReader(ct.Data)
	rawLen := r.Uvarint() // checked by parseV2Core
	packed := r.Bytes(r.Len())
	// Start from a cap derived from the actual input, not the declared
	// length — a lying length field cannot force a huge allocation up
	// front; growth is bounded by the codec's exact output check.
	capHint := int(rawLen)
	if limit := 32 * (len(packed) + 64); capHint > limit {
		capHint = limit
	}
	data, err := ipt.UnpackStream(make([]byte, 0, capHint), packed, int(rawLen))
	if err != nil {
		return err
	}
	ct.Data = data
	return nil
}

// parseV2Switches decodes the columnar switch log.
func parseV2Switches(body []byte) (kernel.SwitchLog, error) {
	r := wire.NewReader(body)
	count := r.Uvarint()
	opMode := r.U8()
	if r.Err() == nil && count > uint64(r.Len()) {
		// Each record takes at least four column bytes plus op bits, so
		// the count can never exceed the remaining body length.
		return kernel.SwitchLog{}, fmt.Errorf("trace: v2 switch count %d exceeds remaining %d", count, r.Len())
	}
	if err := r.Err(); err != nil {
		return kernel.SwitchLog{}, err
	}
	recs := make([]kernel.SwitchRecord, count)
	prev := int64(0)
	for i := range recs {
		prev += r.Zigzag()
		recs[i].TS = simtime.Time(prev)
	}
	prev = 0
	for i := range recs {
		prev += r.Zigzag()
		recs[i].CPU = int32(prev)
	}
	prev = 0
	for i := range recs {
		prev += r.Zigzag()
		recs[i].PID = int32(prev)
	}
	prev = 0
	for i := range recs {
		prev += r.Zigzag()
		recs[i].TID = int32(prev)
	}
	switch opMode {
	case 0:
		var acc byte
		for i := range recs {
			if i&7 == 0 {
				acc = r.U8()
			}
			recs[i].Op = kernel.SwitchOp(acc >> (i & 7) & 1)
		}
	case 1:
		for i := range recs {
			recs[i].Op = kernel.SwitchOp(r.U8())
		}
	default:
		return kernel.SwitchLog{}, fmt.Errorf("trace: unknown v2 switch op mode %d", opMode)
	}
	if err := r.Err(); err != nil {
		return kernel.SwitchLog{}, err
	}
	return kernel.SwitchLog{Records: recs}, nil
}
