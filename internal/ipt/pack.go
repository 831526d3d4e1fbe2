package ipt

import (
	"fmt"

	"exist/internal/wire"
)

// Packed packet-stream codec: a byte-oriented re-encoding of a PT packet
// buffer that exploits the structure the tracer actually emits (§3 of the
// paper's encoding model). The dominant pattern — CYC followed by TIP at
// every indirect branch — fuses into a two-byte op with the target drawn
// from a per-stream dictionary; timestamps, CR3s and out-of-dictionary
// targets are zigzag deltas; PSB groups shrink from 16 bytes to one op.
// TNT bytes pass through literally (they already carry six branches per
// byte), and any region that does not parse as well-formed packets — a
// wrapped buffer's torn head, a corrupted or truncated stream — is
// carried verbatim in a raw chunk, so the codec is lossless on every
// input: Unpack(Pack(data)) == data, byte for byte.
//
// Every emitter in this package is bijective given its parsed fields
// (the payload widths are fixed and values are range-bound by
// construction), which is what makes clean re-emission exact.

// Packed-stream opcodes. Even values other than opPADRun/opRawChunk are
// literal TNT bytes (a TNT byte always has bit 0 clear and value >= 4).
// Odd values 0x01..0x7f are the fused CYC+TIP op with the cycle count in
// bits 1..6; odd values >= 0x81 are the ops below.
const (
	opPADRun   = 0x00 // uvarint count of PAD bytes
	opRawChunk = 0x02 // uvarint length + verbatim bytes
	opTIP      = 0x81 // TIP without preceding CYC: target ref
	opTIPPGE   = 0x83 // zigzag delta from last IP
	opTIPPGD   = 0x85 // zigzag delta from last IP
	opFUP      = 0x87 // zigzag delta from last IP
	opTSC      = 0x89 // zigzag delta from last TSC
	opPIP      = 0x8b // zigzag delta from last CR3
	opPSB      = 0x8d
	opPSBEND   = 0x8f
	opMODE     = 0x91 // one mode byte
	opPTW      = 0x93 // uvarint operand
	opCYC      = 0x95 // standalone CYC: uvarint cycle count
)

// packDictCap bounds the per-stream target dictionary; both sides apply
// the identical rule, so the mapping never diverges.
const packDictCap = 1 << 16

// MaxUnpackedCoreBytes bounds the size Unpack will materialize for one
// core stream: a length-lying or decompression-bomb input errors out
// instead of allocating without bound. Real streams never exceed it —
// simulated buffers are space-scaled and a ToPA buffer tops out well
// below this.
const MaxUnpackedCoreBytes = 64 << 20

// tipRef appends a target reference: a dictionary hit is uvarint(idx+1);
// a miss is 0 followed by the zigzag delta from the last IP, and enters
// the dictionary on both sides.
func tipRef(dst []byte, ip, lastIP uint64, dict map[uint64]uint32, ndict *int) []byte {
	if idx, ok := dict[ip]; ok {
		return wire.AppendUvarint(dst, uint64(idx)+1)
	}
	dst = wire.AppendUvarint(dst, 0)
	dst = wire.AppendZigzag(dst, int64(ip)-int64(lastIP))
	if *ndict < packDictCap {
		dict[ip] = uint32(*ndict)
		*ndict++
	}
	return dst
}

// PackStream appends the packed encoding of one core's packet buffer to
// dst and returns the extended slice. It never fails: unparseable bytes
// are escaped verbatim.
func PackStream(dst, data []byte) []byte {
	p := NewParser(data)
	dict := make(map[uint64]uint32)
	ndict := 0
	var lastIP, lastTSC, lastCR3 uint64
	padRun := 0
	cycPending := false
	var cycVal uint64

	flushPAD := func() {
		if padRun > 0 {
			dst = append(dst, opPADRun)
			dst = wire.AppendUvarint(dst, uint64(padRun))
			padRun = 0
		}
	}
	flushCYC := func() {
		if cycPending {
			dst = append(dst, opCYC)
			dst = wire.AppendUvarint(dst, cycVal)
			cycPending = false
		}
	}
	flush := func() { flushPAD(); flushCYC() }

	for {
		pkt, ok, err := p.Next()
		if err != nil {
			// Escape hatch: carry everything up to the next PSB (or the
			// end) verbatim. The error position can never itself parse as
			// a full PSB, so Sync always makes progress.
			flush()
			start := p.Pos()
			var chunk []byte
			if p.Sync() {
				chunk = data[start:p.Pos()]
			} else {
				chunk = data[start:]
			}
			dst = append(dst, opRawChunk)
			dst = wire.AppendUvarint(dst, uint64(len(chunk)))
			dst = append(dst, chunk...)
			if p.Pos() >= len(data) {
				return dst
			}
			continue
		}
		if !ok {
			flush()
			return dst
		}
		if pkt.Kind != PktPAD {
			flushPAD()
		}
		if cycPending && pkt.Kind != PktTIP {
			flushCYC()
		}
		switch pkt.Kind {
		case PktPAD:
			flushCYC()
			padRun++
		case PktCYC:
			cycPending, cycVal = true, pkt.Val
		case PktTIP:
			if cycPending {
				dst = append(dst, byte(0x01|cycVal<<1))
				cycPending = false
			} else {
				dst = append(dst, opTIP)
			}
			dst = tipRef(dst, pkt.Val, lastIP, dict, &ndict)
			lastIP = pkt.Val
		case PktTIPPGE, PktTIPPGD, PktFUP:
			op := byte(opTIPPGE)
			if pkt.Kind == PktTIPPGD {
				op = opTIPPGD
			} else if pkt.Kind == PktFUP {
				op = opFUP
			}
			dst = append(dst, op)
			dst = wire.AppendZigzag(dst, int64(pkt.Val)-int64(lastIP))
			lastIP = pkt.Val
		case PktTNT:
			dst = append(dst, byte(1)<<(pkt.Len+1)|pkt.Bits<<1)
		case PktTSC:
			dst = append(dst, opTSC)
			dst = wire.AppendZigzag(dst, int64(pkt.Val)-int64(lastTSC))
			lastTSC = pkt.Val
		case PktPIP:
			dst = append(dst, opPIP)
			dst = wire.AppendZigzag(dst, int64(pkt.Val)-int64(lastCR3))
			lastCR3 = pkt.Val
		case PktPSB:
			dst = append(dst, opPSB)
		case PktPSBEND:
			dst = append(dst, opPSBEND)
		case PktMODE:
			dst = append(dst, opMODE, byte(pkt.Val))
		case PktPTW:
			dst = append(dst, opPTW)
			dst = wire.AppendUvarint(dst, pkt.Val)
		}
	}
}

// UnpackStream decodes a packed stream, appending the reconstructed
// packet bytes to dst. rawLen is the expected output size (carried in
// the session framing); the reconstruction must match it exactly, and
// output is capped by it, so a hostile stream cannot expand without
// bound.
func UnpackStream(dst, packed []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 || rawLen > MaxUnpackedCoreBytes {
		return nil, fmt.Errorf("ipt: implausible unpacked size %d", rawLen)
	}
	base := len(dst)
	r := wire.NewReader(packed)
	dict := make([]uint64, 0, 256)
	var lastIP, lastTSC, lastCR3 uint64

	readIP := func() (uint64, error) {
		code := r.Uvarint()
		if code == 0 {
			ip := uint64(int64(lastIP) + r.Zigzag())
			if len(dict) < packDictCap {
				dict = append(dict, ip)
			}
			return ip, r.Err()
		}
		if code > uint64(len(dict)) {
			return 0, fmt.Errorf("ipt: packed target index %d beyond dictionary %d", code, len(dict))
		}
		return dict[code-1], r.Err()
	}

	for r.Len() > 0 {
		if len(dst)-base > rawLen {
			return nil, fmt.Errorf("ipt: packed stream exceeds declared size %d", rawLen)
		}
		op := r.U8()
		switch {
		case op == opPADRun:
			n := r.Uvarint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if n > uint64(rawLen-(len(dst)-base)) {
				return nil, fmt.Errorf("ipt: PAD run %d exceeds declared size", n)
			}
			for i := uint64(0); i < n; i++ {
				dst = append(dst, hdrPAD)
			}
		case op == opRawChunk:
			n := r.Uvarint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if n > uint64(r.Len()) || n > uint64(rawLen-(len(dst)-base)) {
				return nil, fmt.Errorf("ipt: raw chunk %d exceeds remaining input", n)
			}
			dst = append(dst, r.Bytes(int(n))...)
		case op&1 == 0:
			// Literal TNT byte.
			if op < 0x04 {
				return nil, fmt.Errorf("ipt: bad packed opcode %#02x", op)
			}
			dst = append(dst, op)
		case op < 0x80:
			// Fused CYC+TIP.
			dst = AppendCYC(dst, uint32(op>>1))
			ip, err := readIP()
			if err != nil {
				return nil, err
			}
			dst = AppendTIP(dst, PktTIP, ip)
			lastIP = ip
		default:
			switch op {
			case opTIP:
				ip, err := readIP()
				if err != nil {
					return nil, err
				}
				dst = AppendTIP(dst, PktTIP, ip)
				lastIP = ip
			case opTIPPGE, opTIPPGD, opFUP:
				ip := uint64(int64(lastIP) + r.Zigzag())
				kind := PktTIPPGE
				if op == opTIPPGD {
					kind = PktTIPPGD
				} else if op == opFUP {
					kind = PktFUP
				}
				dst = AppendTIP(dst, kind, ip)
				lastIP = ip
			case opTSC:
				lastTSC = uint64(int64(lastTSC) + r.Zigzag())
				dst = AppendTSC(dst, lastTSC)
			case opPIP:
				lastCR3 = uint64(int64(lastCR3) + r.Zigzag())
				dst = AppendPIP(dst, lastCR3)
			case opPSB:
				dst = AppendPSB(dst)
			case opPSBEND:
				dst = AppendPSBEND(dst)
			case opMODE:
				dst = AppendMODE(dst, r.U8())
			case opPTW:
				dst = AppendPTW(dst, r.Uvarint())
			case opCYC:
				v := r.Uvarint()
				if v > 63 {
					return nil, fmt.Errorf("ipt: packed CYC count %d out of range", v)
				}
				dst = AppendCYC(dst, uint32(v))
			default:
				return nil, fmt.Errorf("ipt: bad packed opcode %#02x", op)
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	if len(dst)-base != rawLen {
		return nil, fmt.Errorf("ipt: packed stream produced %d bytes, declared %d", len(dst)-base, rawLen)
	}
	return dst, nil
}
