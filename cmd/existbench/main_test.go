package main

import (
	"reflect"
	"testing"
)

// TestRowMismatch pins the -benchcheck row contract: a baseline row the
// binary no longer measures, and a measured row the baseline lacks, are
// both reported by name.
func TestRowMismatch(t *testing.T) {
	base := map[string]benchResult{"decode_hot": {}, "old_hot": {}, "tracer_hot": {}}
	measured := map[string]benchResult{"decode_hot": {}, "tracer_hot": {}, "new_hot": {}, "a_hot": {}}
	unmeasured, unrecorded := rowMismatch(base, measured)
	if !reflect.DeepEqual(unmeasured, []string{"old_hot"}) {
		t.Errorf("unmeasured = %v, want [old_hot]", unmeasured)
	}
	if !reflect.DeepEqual(unrecorded, []string{"a_hot", "new_hot"}) {
		t.Errorf("unrecorded = %v, want [a_hot new_hot]", unrecorded)
	}
	if u, r := rowMismatch(base, base); u != nil || r != nil {
		t.Errorf("identical rows reported mismatches: %v, %v", u, r)
	}
}
