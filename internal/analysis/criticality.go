package analysis

import (
	"sort"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// Severity grades an erratum's worst-case impact. The paper argues for
// conservatism: "only a few bugs can be considered non-critical" —
// even wrong performance-counter values break security defenses that
// rely on counter integrity (Section V-A4).
type Severity int

const (
	// SeverityUnknown: no effects annotated (should not happen after
	// annotation).
	SeverityUnknown Severity = iota
	// SeverityDegrading: effects observable outside the core (PCIe,
	// USB, multimedia, DRAM interactions, power draw) — disruptive but
	// typically recoverable at the platform level.
	SeverityDegrading
	// SeverityCorrupting: wrong architectural or monitoring state
	// (registers, counters) and fault-delivery errors — silently wrong
	// results, and a security risk for counter-based defenses.
	SeverityCorrupting
	// SeverityFatal: hangs, crashes, boot failures and unpredictable
	// behavior — liveness is lost or nothing can be assumed anymore.
	SeverityFatal
)

// String returns the severity label.
func (s Severity) String() string {
	switch s {
	case SeverityDegrading:
		return "Degrading"
	case SeverityCorrupting:
		return "Corrupting"
	case SeverityFatal:
		return "Fatal"
	default:
		return "Unknown"
	}
}

// effectSeverity grades one effect class.
var effectSeverity = map[string]Severity{
	"Eff_HNG": SeverityFatal,
	"Eff_FLT": SeverityCorrupting,
	"Eff_CRP": SeverityCorrupting,
	"Eff_EXT": SeverityDegrading,
}

// Grade returns the conservative (maximum) severity over an erratum's
// effects.
func Grade(e *domain.Erratum, scheme domain.Scheme) Severity {
	max := SeverityUnknown
	for _, it := range e.Ann.Effects {
		if s := effectSeverity[scheme.ClassOf(it.Category)]; s > max {
			max = s
		}
	}
	return max
}

// SeverityBreakdown is the per-vendor severity histogram with the
// user-mode security refinement.
type SeverityBreakdown struct {
	Vendor domain.Vendor
	// Counts maps severities to unique-errata counts.
	Counts map[Severity]int
	// GuestReachableFatal counts fatal bugs triggerable from a virtual
	// machine guest — the population a cloud provider worries about.
	GuestReachableFatal int
	// Total is the number of unique errata graded.
	Total int
}

// Severities computes the conservative severity breakdown per vendor
// over unique errata.
func Severities(db *domain.Database) []SeverityBreakdown {
	var out []SeverityBreakdown
	for _, v := range domain.Vendors {
		b := SeverityBreakdown{Vendor: v, Counts: make(map[Severity]int)}
		for _, e := range db.UniqueVendor(v) {
			s := Grade(e, db.Scheme)
			b.Counts[s]++
			b.Total++
			if s == SeverityFatal && e.Ann.Has("Ctx_PRV_vmg") {
				b.GuestReachableFatal++
			}
		}
		out = append(out, b)
	}
	return out
}

// MostCritical returns the n most critical unique errata of a vendor:
// fatal first, then by the number of distinct effects (more ways to go
// wrong), stably by key.
func MostCritical(db *domain.Database, v domain.Vendor, n int) []*domain.Erratum {
	errata := append([]*domain.Erratum(nil), db.UniqueVendor(v)...)
	sort.SliceStable(errata, func(i, j int) bool {
		si, sj := Grade(errata[i], db.Scheme), Grade(errata[j], db.Scheme)
		if si != sj {
			return si > sj
		}
		ei := len(errata[i].Ann.Categories(taxonomy.Effect, db.Scheme))
		ej := len(errata[j].Ann.Categories(taxonomy.Effect, db.Scheme))
		if ei != ej {
			return ei > ej
		}
		return errata[i].Key < errata[j].Key
	})
	if n > 0 && len(errata) > n {
		errata = errata[:n]
	}
	return errata
}
