package match

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// DefaultMinLiteral is the minimum folded-literal length (in runes)
// worth indexing; shorter required literals are too unselective and the
// pattern goes to the always-confirm path instead.
const DefaultMinLiteral = 3

// Kernel is a compiled multi-pattern matcher over a fixed set of
// regular expressions, identified by their index in the slice passed to
// New. It is immutable after construction and safe for concurrent use.
type Kernel struct {
	regexes []*regexp.Regexp
	// always lists pattern ids with no extractable required literal;
	// they are candidates for every text. Sorted ascending.
	always []int
	ac     *automaton // nil when no pattern contributed a literal
	stats  Stats
	pool   sync.Pool // *scratch
}

// Stats describes how the kernel partitioned its patterns.
type Stats struct {
	// Patterns is the total number of patterns.
	Patterns int
	// Prefiltered is the number of patterns gated by at least one
	// automaton literal.
	Prefiltered int
	// AlwaysRun is the number of patterns on the slow path.
	AlwaysRun int
	// Literals is the number of automaton literals (a pattern with
	// alternation contributes one per branch).
	Literals int
}

// scratch is the per-scan deduplication state, pooled across calls.
// seen is epoch-stamped so it never needs clearing between scans.
type scratch struct {
	seen  []uint32
	epoch uint32
}

// New builds a kernel over pre-compiled regexes. sources[i] must be the
// pattern source regexes[i] was compiled from; literal extraction works
// on the source so callers can share one compiled regex set between the
// kernel and their own slow path.
func New(regexes []*regexp.Regexp, sources []string, minLiteral int) (*Kernel, error) {
	if len(regexes) != len(sources) {
		return nil, fmt.Errorf("match: %d regexes for %d sources", len(regexes), len(sources))
	}
	if minLiteral <= 0 {
		minLiteral = DefaultMinLiteral
	}
	k := &Kernel{regexes: regexes}
	var lits []acLiteral
	for id, src := range sources {
		alts, ok := requiredLiterals(src, minLiteral)
		if !ok {
			k.always = append(k.always, id)
			continue
		}
		for _, l := range alts {
			lits = append(lits, acLiteral{text: l, id: int32(id)})
		}
	}
	if len(lits) > 0 {
		k.ac = buildAutomaton(lits)
	}
	k.stats = Stats{
		Patterns:    len(regexes),
		Prefiltered: len(regexes) - len(k.always),
		AlwaysRun:   len(k.always),
		Literals:    len(lits),
	}
	n := len(regexes)
	k.pool.New = func() any { return &scratch{seen: make([]uint32, n)} }
	return k, nil
}

// Compile builds a kernel from pattern sources, compiling each with
// regexp.Compile.
func Compile(sources []string, minLiteral int) (*Kernel, error) {
	regexes := make([]*regexp.Regexp, len(sources))
	for i, src := range sources {
		re, err := regexp.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("match: pattern %d: %w", i, err)
		}
		regexes[i] = re
	}
	return New(regexes, sources, minLiteral)
}

// Len returns the number of patterns.
func (k *Kernel) Len() int { return len(k.regexes) }

// Pattern returns the compiled regex of one pattern id.
func (k *Kernel) Pattern(id int) *regexp.Regexp { return k.regexes[id] }

// Stats returns the build-time partition of the pattern set.
func (k *Kernel) Stats() Stats { return k.stats }

// Candidates appends to dst the ids of every pattern that may match
// text — the always-run patterns plus those whose required literal
// occurs in the folded text — and returns the result sorted ascending
// without duplicates. The guarantee is one-sided: every pattern that
// matches text is in the candidate set, but a candidate need not match.
// ASCII text is lowered inside the scan; only text holding a non-ASCII
// byte is folded into a copy first.
func (k *Kernel) Candidates(text string, dst []int) []int {
	dst = append(dst[:0], k.always...)
	if k.ac != nil {
		sc := k.pool.Get().(*scratch)
		sc.epoch++
		if sc.epoch == 0 { // wrapped: stamp values are stale, reset
			for i := range sc.seen {
				sc.seen[i] = 0
			}
			sc.epoch = 1
		}
		if !isASCII(text) {
			text = Fold(text)
		}
		dst = k.ac.scan(text, dst, sc)
		k.pool.Put(sc)
	}
	sort.Ints(dst)
	return dst
}

// Match appends to dst the ids of every pattern that matches text,
// sorted ascending. It is the candidate scan followed by regex
// confirmation, and returns exactly the set a loop over all patterns
// would.
func (k *Kernel) Match(text string, dst []int) []int {
	cands := k.Candidates(text, dst)
	confirmed := cands[:0]
	for _, id := range cands {
		if k.regexes[id].MatchString(text) {
			confirmed = append(confirmed, id)
		}
	}
	return confirmed
}
