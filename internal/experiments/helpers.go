package experiments

import (
	"fmt"

	"exist/internal/simtime"
)

// SchemeKind selects a tracing scheme in comparison sweeps. Its String
// is both the table name and the name tracer.New builds, so adding a
// backend means adding it to tracer.New and listing it here.
type SchemeKind int

// The comparison schemes of Table 2.
const (
	SchemeOracle SchemeKind = iota
	SchemeEXIST
	SchemeStaSam
	SchemeEBPF
	SchemeNHT
)

// String returns the table name.
func (k SchemeKind) String() string {
	switch k {
	case SchemeOracle:
		return "Oracle"
	case SchemeEXIST:
		return "EXIST"
	case SchemeStaSam:
		return "StaSam"
	case SchemeEBPF:
		return "eBPF"
	case SchemeNHT:
		return "NHT"
	default:
		return "?"
	}
}

// ComparisonSchemes is the standard sweep order.
var ComparisonSchemes = []SchemeKind{SchemeOracle, SchemeEXIST, SchemeStaSam, SchemeEBPF, SchemeNHT}

// durQuick picks a duration based on Quick mode.
func durQuick(cfg Config, quick, full simtime.Duration) simtime.Duration {
	if cfg.Quick {
		return quick
	}
	return full
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// ratio formats an improvement factor.
func ratio(v float64) string { return fmt.Sprintf("%.1fx", v) }
