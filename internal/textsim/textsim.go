// Package textsim provides the text primitives RemembERR's duplicate
// detection relies on: title normalization, tokenization, and several
// string-similarity metrics (Jaccard, Sørensen-Dice, Levenshtein,
// n-gram shingles), plus MinHash signatures and an LSH candidate index.
//
// The paper detects Intel cross-generation duplicates by (nearly)
// identical titles, then manually reviews remaining candidates sorted by
// decreasing title similarity. These metrics implement that ranking.
package textsim

import (
	"strings"
	"unicode"
)

// Normalize lower-cases s, strips punctuation, and collapses whitespace,
// so that titles differing only in minor phrasing normalize identically.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// Tokens splits s into normalized word tokens.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Fields(n)
}

// tokenSet returns the set of distinct tokens of s.
func tokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range Tokens(s) {
		set[t] = struct{}{}
	}
	return set
}

// Jaccard returns the Jaccard similarity of the token sets of a and b
// in [0,1]. Two empty strings are considered identical (1).
func Jaccard(a, b string) float64 {
	sa, sb := tokenSet(a), tokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Dice returns the Sørensen-Dice coefficient of the token sets of a and
// b in [0,1].
func Dice(a, b string) float64 {
	sa, sb := tokenSet(a), tokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	den := len(sa) + len(sb)
	if den == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(den)
}

// Levenshtein returns the edit distance between the normalized forms of
// a and b, counting insertions, deletions and substitutions as 1.
func Levenshtein(a, b string) int {
	return levenshteinRunes([]rune(Normalize(a)), []rune(Normalize(b)))
}

// levenshteinRunes is the edit-distance kernel over already-normalized
// rune slices, so that callers holding normalized text (the dedup
// candidate-scoring hot loop via LevenshteinSimilarity) pay for
// normalization exactly once.
func levenshteinRunes(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSimilarity maps the edit distance to a similarity in [0,1]:
// 1 - dist/maxLen. Two empty strings are identical.
func LevenshteinSimilarity(a, b string) float64 {
	ra, rb := []rune(Normalize(a)), []rune(Normalize(b))
	maxLen := len(ra)
	if len(rb) > maxLen {
		maxLen = len(rb)
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(levenshteinRunes(ra, rb))/float64(maxLen)
}

// Shingles returns the set of n-grams (as strings of n consecutive
// tokens joined by a space) of s. For fewer than n tokens, the whole
// token sequence is the single shingle.
func Shingles(s string, n int) map[string]struct{} {
	toks := Tokens(s)
	out := make(map[string]struct{})
	if len(toks) == 0 || n <= 0 {
		return out
	}
	if len(toks) < n {
		out[strings.Join(toks, " ")] = struct{}{}
		return out
	}
	for i := 0; i+n <= len(toks); i++ {
		out[strings.Join(toks[i:i+n], " ")] = struct{}{}
	}
	return out
}

// ShingleJaccard returns the Jaccard similarity of the n-gram shingle
// sets of a and b.
func ShingleJaccard(a, b string, n int) float64 {
	sa, sb := Shingles(a, n), Shingles(b, n)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Pair is a scored candidate pair of corpus documents.
type Pair struct {
	I, J  int
	Score float64
}

// Metric names a similarity function usable for duplicate ranking; used
// by the ablation benchmarks.
type Metric string

// Supported similarity metrics.
const (
	MetricJaccard     Metric = "jaccard"
	MetricDice        Metric = "dice"
	MetricLevenshtein Metric = "levenshtein"
	MetricShingle2    Metric = "shingle2"
)

// Similarity computes the named metric on a pair of strings. Unknown
// metrics fall back to Jaccard.
func Similarity(m Metric, a, b string) float64 {
	switch m {
	case MetricDice:
		return Dice(a, b)
	case MetricLevenshtein:
		return LevenshteinSimilarity(a, b)
	case MetricShingle2:
		return ShingleJaccard(a, b, 2)
	default:
		return Jaccard(a, b)
	}
}
