package trace

import (
	"fmt"
	"math"

	"exist/internal/ipt"
	"exist/internal/kernel"
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
// payloads, the one encoding the data path writes and reads.
func (s *Session) Marshal() []byte {
	// Packed payloads are normally far below their raw size, so this cap
	// makes the common case a single allocation.
	capHint := V1Size(s) + 128 + 32*len(s.Cores) + 4*len(s.Switches.Records)
	out := make([]byte, 0, capHint)
	out = wire.AppendU32(out, sessionMagicV2)

	// Header block with the string dictionary. ID/Node/Workload often
	// share text across sessions of one workload; within one session the
	// dictionary mostly removes duplicate strings and fixed-width length
	// prefixes.
	var scratch []byte // reused for every block body except core payloads
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
	scratch = wire.AppendUvarint(scratch, uint64(len(dict)))
	for _, d := range dict {
		scratch = wire.AppendUvarint(scratch, uint64(len(d)))
		scratch = append(scratch, d...)
	}
	scratch = wire.AppendUvarint(scratch, iID)
	scratch = wire.AppendUvarint(scratch, iNode)
	scratch = wire.AppendUvarint(scratch, iWl)
	scratch = wire.AppendZigzag(scratch, int64(s.PID))
	scratch = wire.AppendZigzag(scratch, int64(s.Start))
	scratch = wire.AppendZigzag(scratch, int64(s.End)-int64(s.Start))
	scratch = wire.AppendU64(scratch, math.Float64bits(s.Scale))
	scratch = wire.AppendUvarint(scratch, uint64(len(s.Cores)))
	out = appendBlock(out, blockHeader, scratch, nil)

	// Core blocks. The codec output lives in a buffer reused across cores.
	var packBuf []byte
	prevCore := int64(0)
	for i := range s.Cores {
		c := &s.Cores[i]
		scratch = wire.AppendZigzag(scratch[:0], int64(c.Core)-prevCore)
		prevCore = int64(c.Core)
		flags := byte(0)
		if c.Wrapped {
			flags |= 1
		}
		if c.Stopped {
			flags |= 2
		}
		scratch = append(scratch, flags)
		scratch = wire.AppendZigzag(scratch, c.DroppedBytes)
		scratch = append(scratch, coreEncPacked)
		scratch = wire.AppendUvarint(scratch, uint64(len(c.Data)))
		packBuf = ipt.PackStream(packBuf[:0], c.Data)
		out = appendBlock(out, blockCore, scratch, packBuf)
	}

	// Switch log, columnar.
	recs := s.Switches.Records
	if len(recs) > 0 {
		scratch = wire.AppendUvarint(scratch[:0], uint64(len(recs)))
		opMode := byte(0)
		for _, rec := range recs {
			if rec.Op > 1 {
				opMode = 1
				break
			}
		}
		scratch = append(scratch, opMode)
		prev := int64(0)
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.TS)-prev)
			prev = int64(rec.TS)
		}
		prev = 0
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.CPU)-prev)
			prev = int64(rec.CPU)
		}
		prev = 0
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.PID)-prev)
			prev = int64(rec.PID)
		}
		prev = 0
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.TID)-prev)
			prev = int64(rec.TID)
		}
		if opMode == 0 {
			var acc byte
			for i, rec := range recs {
				acc |= byte(rec.Op) << (i & 7)
				if i&7 == 7 {
					scratch = append(scratch, acc)
					acc = 0
				}
			}
			if len(recs)&7 != 0 {
				scratch = append(scratch, acc)
			}
		} else {
			for _, rec := range recs {
				scratch = append(scratch, byte(rec.Op))
			}
		}
		out = appendBlock(out, blockSwitches, scratch, nil)
	}

	return appendBlock(out, blockEnd, nil, nil)
}

// appendBlock appends one framed block whose body is meta followed by
// payload.
func appendBlock(out []byte, tag byte, meta, payload []byte) []byte {
	out = append(out, tag)
	out = wire.AppendUvarint(out, uint64(len(meta)+len(payload)))
	out = append(out, meta...)
	return append(out, payload...)
}

// unmarshalV2 parses a v2 blob.
func unmarshalV2(data []byte) (*Session, error) {
	r := wire.NewReader(data)
	r.U32() // magic, already checked
	s := &Session{}
	sawHeader := false
	coreBlocks := 0
	for {
		tag := r.U8()
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if tag == blockEnd {
			if n != 0 {
				return nil, fmt.Errorf("trace: v2 end block with length %d", n)
			}
			if !sawHeader {
				return nil, fmt.Errorf("trace: v2 session missing header block")
			}
			return s, nil
		}
		body := r.Bytes(int(n))
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch tag {
		case blockHeader:
			if sawHeader {
				return nil, fmt.Errorf("trace: duplicate v2 header block")
			}
			sawHeader = true
			if err := parseV2Header(s, body); err != nil {
				return nil, err
			}
		case blockCore:
			if !sawHeader {
				return nil, fmt.Errorf("trace: v2 core block before header")
			}
			if coreBlocks >= cap(s.Cores) {
				return nil, fmt.Errorf("trace: more core blocks than declared %d", cap(s.Cores))
			}
			prev := int64(0)
			if coreBlocks > 0 {
				prev = int64(s.Cores[coreBlocks-1].Core)
			}
			ct, err := parseV2Core(body, prev)
			if err != nil {
				return nil, err
			}
			s.Cores = append(s.Cores, ct)
			coreBlocks++
		case blockSwitches:
			log, err := parseV2Switches(body)
			if err != nil {
				return nil, err
			}
			s.Switches = *log
		default:
			// Unknown block: skipped (already consumed by Bytes).
		}
	}
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

// parseV2Core decodes one core block.
func parseV2Core(body []byte, prevCore int64) (CoreTrace, error) {
	r := wire.NewReader(body)
	var ct CoreTrace
	ct.Core = int(prevCore + r.Zigzag())
	flags := r.U8()
	ct.Wrapped = flags&1 != 0
	ct.Stopped = flags&2 != 0
	ct.DroppedBytes = r.Zigzag()
	enc := r.U8()
	rawLen := r.Uvarint()
	if err := r.Err(); err != nil {
		return ct, err
	}
	if enc != coreEncPacked {
		return ct, fmt.Errorf("trace: unknown v2 core encoding %d", enc)
	}
	if rawLen > ipt.MaxUnpackedCoreBytes {
		return ct, fmt.Errorf("trace: v2 core declares %d unpacked bytes", rawLen)
	}
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
		return ct, err
	}
	ct.Data = data
	return ct, nil
}

// parseV2Switches decodes the columnar switch log.
func parseV2Switches(body []byte) (*kernel.SwitchLog, error) {
	r := wire.NewReader(body)
	count := r.Uvarint()
	opMode := r.U8()
	if r.Err() == nil && count > uint64(r.Len()) {
		// Each record takes at least four column bytes plus op bits, so
		// the count can never exceed the remaining body length.
		return nil, fmt.Errorf("trace: v2 switch count %d exceeds remaining %d", count, r.Len())
	}
	if err := r.Err(); err != nil {
		return nil, err
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
		return nil, fmt.Errorf("trace: unknown v2 switch op mode %d", opMode)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &kernel.SwitchLog{Records: recs}, nil
}
