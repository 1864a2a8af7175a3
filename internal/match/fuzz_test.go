package match

import (
	"reflect"
	"strings"
	"testing"
)

// foldSources mixes case-insensitive patterns whose literals sit in the
// Kelvin-sign and long-s fold orbits, a case-sensitive pattern and an
// always-run one.
var foldSources = []string{
	`(?i)kelvin`,
	`(?i)\bstraddles\b`,
	`(?i)cache line boundary`,
	`(?i)c6 power state|package c-state`,
	`observed in the ([A-Za-z0-9_]+) register`,
	`\bMSR 0x[0-9A-Fa-f_]+\b`,
	`(?i)\bx\b`,
}

// FuzzCandidatesFold holds Candidates, which lowers ASCII text inside
// the automaton loop and folds into a copy only text with a non-ASCII
// byte, to its definition: the always-run patterns plus every pattern
// with a required literal contained in Fold(text).
func FuzzCandidatesFold(f *testing.F) {
	k, err := Compile(foldSources, DefaultMinLiteral)
	if err != nil {
		f.Fatal(err)
	}
	lits := make([][]string, len(foldSources))
	for id, src := range foldSources {
		lits[id], _ = requiredLiterals(src, DefaultMinLiteral)
	}
	f.Add("The KELVIN sign \u212Aelvin, \u212AELVIN")
	f.Add("an access ſtraddles a Cache Line BOUNDARY")
	f.Add("Straddles ſtraddles STRADDLES")
	f.Add("The PACKAGE C-STATE changes; x marks the Observed in the HWCR register")
	f.Add("latched in MSR 0xFFFF_FFFF and msr 0x1 \u0138elvin")
	f.Add("\xff\xfeinvalid CACHE line boundary")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		folded := Fold(text)
		var want []int
		for id := range foldSources {
			hit := lits[id] == nil
			for _, l := range lits[id] {
				hit = hit || strings.Contains(folded, l)
			}
			if hit {
				want = append(want, id)
			}
		}
		if got := k.Candidates(text, nil); !reflect.DeepEqual(wantOrNil(got), want) {
			t.Fatalf("Candidates(%q) = %v, want %v (folded %q)", text, got, want, folded)
		}
	})
}
