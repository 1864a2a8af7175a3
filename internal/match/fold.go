// Package match implements a multi-pattern matching kernel: given a set
// of regular expressions, it extracts a required literal from each
// pattern at build time, compiles all literals into one Aho-Corasick
// automaton, and answers "which patterns may match this text?" with a
// single scan. Candidates are then confirmed by the real regex engine,
// so the kernel's confirmed-match set is always identical to running
// every pattern — the automaton only prunes patterns that provably
// cannot match. Patterns with no extractable literal stay on an
// always-confirm slow path.
//
// The kernel exists for the classify package's rule engine (Section V-A
// of the RemembERR paper), where ~200 case-insensitive patterns are
// evaluated against every clause of every erratum: most clauses match
// nothing, and the automaton proves that without running a single
// regex.
package match

import (
	"strings"
	"unicode"
)

// foldRune maps a rune to the canonical representative of its simple
// case-folding orbit — the same orbit Go's regexp engine uses for (?i)
// matching. Two runes are (?i)-equivalent exactly when they fold to the
// same representative, so a case-insensitive literal occurs in a text
// iff the folded literal occurs in the folded text. We pick the
// lowercase ASCII member of the orbit when there is one (so folding is
// the identity on typical lowercase English text and Fold usually
// avoids allocating), and the numerically smallest member otherwise.
func foldRune(r rune) rune {
	// Fast path: ASCII without an exotic fold orbit. 'k' and 's' fold
	// with U+212A (Kelvin sign) and U+017F (long s), but both orbits
	// still canonicalize to the ASCII lowercase letter, so plain ASCII
	// lowering is correct for all ASCII input.
	if r < 0x80 {
		if 'A' <= r && r <= 'Z' {
			return r + ('a' - 'A')
		}
		return r
	}
	min := r
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f < min {
			min = f
		}
	}
	if 'A' <= min && min <= 'Z' {
		return min + ('a' - 'A')
	}
	return min
}

// Fold canonicalizes a string under simple case folding. It returns the
// input string unchanged (no allocation) when no rune needs folding,
// which is the common case for the lowercase clause text the classify
// engine scans.
func Fold(s string) string {
	return strings.Map(foldRune, s)
}

// isASCII reports whether s holds only ASCII bytes, whose fold is plain
// ASCII lowering.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
