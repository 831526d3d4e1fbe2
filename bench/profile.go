package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileLayers are the packages whose flat CPU share the traced run
// reports, as pkg.<name>.cpu_share: the modules of exist/internal the
// workloads execute, the Go runtime (allocation, GC, scheduling), the rest
// of the standard library, and everything else (the benchmark itself and
// the thin exist modules not listed).
var profileLayers = []string{
	"baselines", "binary", "cluster", "core", "coverage", "decode", "faults",
	"ipt", "kernel", "memalloc", "node", "sched", "simtime", "trace",
	"tracer", "wire", "workload", "xrand", "runtime", "std", "other",
}

// layerOf maps a Go symbol name, as a CPU profile records it, to one of
// profileLayers.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold paths too
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "exist/internal/"):
		mod := strings.TrimPrefix(pkg, "exist/internal/")
		for _, l := range profileLayers {
			if l == mod {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "exist/"), strings.Contains(pkg, ":"):
		return "other"
	}
	return "std"
}

// cpuShares reads a gzipped pprof CPU profile and returns each layer's
// share of the flat (leaf-frame) CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		total += v
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			// The first line of a location is the innermost inlined frame.
			name = p.strings[p.funcNames[fns[0]]]
		}
		byLayer[layerOf(name)] += v
	}
	out := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		if total > 0 {
			out[l] = byLayer[l] / total
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// profile holds the parts of a profile.proto message cpuShares reads.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string-table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed protobuf")

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case sampleLocation:
					return appendVarints(&s.locs, w, v, d)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, w, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case locID:
					id = v
				case locLine:
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
