package classify

import (
	"regexp"
	"sync"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/pkg/domain"
)

// This file wires the multi-pattern matching kernel (internal/match)
// into the rule engine. Per kind, every strong and weak pattern of
// every rule is flattened into one pattern set and compiled into one
// kernel; a segment is then folded and scanned once, and only the
// candidate patterns the automaton could not rule out run their
// regexes. Pattern ids are assigned rule-major with strong patterns
// before weak ones, so iterating a sorted candidate list visits rules
// in rule order and resolves each rule's strong patterns before its
// weak ones — which is exactly the order the naive path needs.

// numKinds is the number of annotation dimensions (domain.Kinds).
const numKinds = 3

// kindKernel is the compiled kernel of one kind's rule list.
type kindKernel struct {
	kernel *match.Kernel
	// pat maps pattern id to its owning rule and class.
	pat []patInfo
	// numRules is the length of the kind's rule list.
	numRules int
}

type patInfo struct {
	rule   int32
	strong bool
}

// buildKindKernel flattens the compiled rules and their sources into
// one kernel. rules[i] must be the compiled form of specs[i].
func buildKindKernel(rules []rule, specs []ruleSpec) *kindKernel {
	kk := &kindKernel{numRules: len(rules)}
	var regexes []*regexp.Regexp
	var sources []string
	for i := range rules {
		for j, p := range rules[i].strong {
			regexes = append(regexes, p)
			sources = append(sources, `(?i)`+specs[i].strong[j])
			kk.pat = append(kk.pat, patInfo{rule: int32(i), strong: true})
		}
		for j, p := range rules[i].weak {
			regexes = append(regexes, p)
			sources = append(sources, `(?i)`+specs[i].weak[j])
			kk.pat = append(kk.pat, patInfo{rule: int32(i)})
		}
	}
	k, err := match.New(regexes, sources, match.DefaultMinLiteral)
	if err != nil {
		panic("classify: kernel build: " + err.Error())
	}
	kk.kernel = k
	return kk
}

// matchScratch is the pooled per-call state of the kernel path.
type matchScratch struct {
	// rules holds one state byte per rule: ruleUnseen, ruleStrong or
	// ruleWeak. Sized for the largest kind and re-zeroed per call.
	rules []uint8
	cands []int
}

const (
	ruleUnseen uint8 = iota
	ruleStrong
	ruleWeak
)

// matchKernel is the prefiltered equivalent of matchNaive.
func (e *Engine) matchKernel(kind domain.Kind, text string) (strong, weak []string) {
	kk := e.kernels[kind]
	sc := e.scratch.Get().(*matchScratch)
	sc.cands = kk.kernel.Candidates(text, sc.cands)
	state := sc.rules[:kk.numRules]
	for i := range state {
		state[i] = ruleUnseen
	}
	// Candidates are sorted by id, hence rule-major with strong ids
	// first: by the time a rule's weak candidates appear, its strong
	// verdict is final. Any pattern not in the candidate set provably
	// does not match, so skipping it preserves the naive semantics.
	confirmed := 0
	for _, id := range sc.cands {
		pi := kk.pat[id]
		switch {
		case pi.strong:
			if state[pi.rule] != ruleStrong && kk.kernel.Pattern(id).MatchString(text) {
				state[pi.rule] = ruleStrong
				confirmed++
			}
		case state[pi.rule] == ruleUnseen:
			if kk.kernel.Pattern(id).MatchString(text) {
				state[pi.rule] = ruleWeak
				confirmed++
			}
		}
	}
	e.prefCands.Add(int64(len(sc.cands)))
	e.prefConfirmed.Add(int64(confirmed))
	rules := e.rules[kind]
	for i, st := range state {
		switch st {
		case ruleStrong:
			strong = append(strong, rules[i].category)
		case ruleWeak:
			weak = append(weak, rules[i].category)
		}
	}
	e.scratch.Put(sc)
	return strong, weak
}

// Extractor pattern ids in flagsKernel, in registration order.
const (
	idxComplex = iota
	idxTrivial
	idxSimOnly
	idxMSRObs
	idxMSRRaw
)

// flagsKernel prefilters the five extractor patterns that scan whole
// erratum texts (flag sentences and MSR extraction). Every one of them
// has a long required literal, so the single automaton scan replaces
// five backtracking regex runs on the overwhelmingly common
// no-extractor text.
var flagsKernel = func() *match.Kernel {
	k, err := match.New(
		[]*regexp.Regexp{complexRe, trivialRe, simOnlyRe, msrObsRe, msrRawRe},
		[]string{complexSrc, trivialSrc, simOnlySrc, msrObsSrc, msrRawSrc},
		match.DefaultMinLiteral,
	)
	if err != nil {
		panic("classify: flags kernel build: " + err.Error())
	}
	return k
}()

// flagCandidates scans a text once and reports which extractor patterns
// may match it. The superset guarantee carries over from the kernel:
// a cleared bit proves the pattern cannot match.
func (e *Engine) flagCandidates(text string) (hit [5]bool) {
	sc := e.scratch.Get().(*matchScratch)
	sc.cands = flagsKernel.Candidates(text, sc.cands)
	for _, id := range sc.cands {
		hit[id] = true
	}
	e.scratch.Put(sc)
	return hit
}

// isFlagSentence reports whether a sentence is one of the flag
// sentences the extractors own (complex-conditions, trivial-trigger or
// simulation-only phrasing), prefiltered when the kernel is enabled.
func (e *Engine) isFlagSentence(s string) bool {
	if !e.cfg.Prefilter {
		return complexRe.MatchString(s) || trivialRe.MatchString(s) || simOnlyRe.MatchString(s)
	}
	hit := e.flagCandidates(s)
	return hit[idxComplex] && complexRe.MatchString(s) ||
		hit[idxTrivial] && trivialRe.MatchString(s) ||
		hit[idxSimOnly] && simOnlyRe.MatchString(s)
}

// memoMaxEntries bounds each memo cache. A corpus build sees a few
// thousand distinct clauses and a few dozen distinct workaround and
// status texts, so the bound exists to keep adversarial or unbounded
// inputs from growing a cache without limit, not to evict in normal
// operation.
const memoMaxEntries = 1 << 15

// memoCache memoizes a classification per text: the clause match
// vectors of one kind, or the workaround or status category of a field.
// The key is the text exactly as the segmenter or the erratum produced
// it; it is deliberately not case-folded so the cache stays correct
// even for case-sensitive patterns. Cached slices are returned to
// multiple reports and must never be mutated.
//
// Determinism: a hit returns exactly what the miss path would compute,
// so cache state — including the clear-on-full reset — can never change
// a classification, only its cost.
type memoCache[V any] struct {
	mu     sync.RWMutex
	m      map[string]V
	max    int
	clears *obs.Counter // clear-on-full resets; nil when uninstrumented
}

type memoEntry struct {
	strong, weak []string
}

func newMemoCache[V any](max int, clears *obs.Counter) *memoCache[V] {
	return &memoCache[V]{m: make(map[string]V), max: max, clears: clears}
}

func (c *memoCache[V]) get(text string) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[text]
	c.mu.RUnlock()
	return v, ok
}

func (c *memoCache[V]) put(text string, v V) {
	c.mu.Lock()
	if len(c.m) >= c.max {
		// Clear-on-full: the hot templated texts repopulate within one
		// batch, and the policy is trivially deterministic.
		c.m = make(map[string]V)
		c.clears.Inc()
	}
	c.m[text] = v
	c.mu.Unlock()
}

// memoized returns classify(text) through c; a nil c (Memo off) calls
// classify every time.
func memoized[V any](c *memoCache[V], text string, classify func(string) V) V {
	if c == nil {
		return classify(text)
	}
	if v, ok := c.get(text); ok {
		return v
	}
	v := classify(text)
	c.put(text, v)
	return v
}
