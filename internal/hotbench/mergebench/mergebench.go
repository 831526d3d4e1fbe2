// Package mergebench is the hot-path fixture for the cluster-level
// coverage merge (RCO's augmentation): ten workers' decodes of the same
// program, folded into one augmented profile per op. It lives apart from
// package hotbench because it imports the decoder, whose own tests
// import hotbench.
package mergebench

import (
	"exist/internal/coverage"
	"exist/internal/decode"
	"exist/internal/hotbench"
)

// Fixture shape: ten workers, each a 1M-cycle walk of the hotbench
// program from its own seed.
const (
	workers = 10
	budget  = 1_000_000
)

// Bench holds the decoded worker reconstructions.
type Bench struct {
	decs []*decode.Result
}

// New decodes the worker sessions.
func New() *Bench {
	prog := hotbench.Program(1)
	b := &Bench{}
	for w := uint64(1); w <= workers; w++ {
		b.decs = append(b.decs, decode.Decode(hotbench.Session(prog, w, budget), prog))
	}
	return b
}

// Merge is one op: merge the workers' reconstructions.
func (b *Bench) Merge() *coverage.Augmented {
	return coverage.Merge(b.decs)
}
