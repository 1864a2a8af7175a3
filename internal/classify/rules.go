// Package classify implements RemembERR's software-assisted
// classification (Section V-A of the paper): a regular-expression rule
// engine that conservatively filters the 60 abstract categories per
// erratum into auto-included, auto-excluded and undecided decisions, a
// syntax-highlighting engine that marks the text regions relevant to a
// category, and extractors for MSR names, workaround categories, fix
// statuses and the trivial/complex-condition flags.
//
// The paper reduced 67,680 classification decisions per human to 2,064
// with such conservative filtering; the remaining undecided pairs go to
// the simulated annotators of the annotate package.
package classify

import (
	"fmt"
	"regexp"
	"sync"

	"repro/internal/obs"
	"repro/pkg/domain"
	"repro/pkg/pluginapi"
)

// rule holds the compiled patterns of one abstract category.
//
// Strong patterns are distinctive: a match is sufficient to auto-include
// the category. Weak patterns are suggestive: a match surfaces the
// category for human review (undecided) but never auto-includes.
type rule struct {
	category string
	kind     domain.Kind
	strong   []*regexp.Regexp
	weak     []*regexp.Regexp
}

type ruleSpec struct {
	category string
	strong   []string
	weak     []string
}

func re(parts []string) ([]*regexp.Regexp, error) {
	out := make([]*regexp.Regexp, len(parts))
	for i, p := range parts {
		rx, err := regexp.Compile(`(?i)` + p)
		if err != nil {
			return nil, err
		}
		out[i] = rx
	}
	return out, nil
}

// defaultRules lazily compiles the default rule pack of the plugin
// registry, shared by every engine: constructing an engine must not
// recompile the ~200 base patterns. The compiled rules and kernels are
// immutable after the first use. Resolution is lazy — at first engine
// construction, not package initialization — so it cannot race the
// init-time plugin registration of the composition root.
var defaultRules struct {
	once    sync.Once
	rules   map[domain.Kind][]rule
	kernels map[domain.Kind]*kindKernel
	err     error
}

func baseCompiled() (map[domain.Kind][]rule, map[domain.Kind]*kindKernel) {
	defaultRules.once.Do(func() {
		pack, err := pluginapi.DefaultRulePack()
		if err != nil {
			defaultRules.err = fmt.Errorf("classify: %w", err)
			return
		}
		defaultRules.rules, defaultRules.kernels, defaultRules.err =
			compileRules(pack, domain.BaseScheme())
	})
	if defaultRules.err != nil {
		panic(defaultRules.err)
	}
	return defaultRules.rules, defaultRules.kernels
}

// compileRules compiles a rule pack against a taxonomy scheme: every
// category must exist in the scheme and every pattern must be a valid
// regex. Rule order within a kind is preserved, so matched categories
// keep the pack's reporting order, and the multi-pattern kernels (see
// kernel.go) are built once per kind over the compiled rules.
func compileRules(pack pluginapi.RulePack, scheme *domain.Scheme) (map[domain.Kind][]rule, map[domain.Kind]*kindKernel, error) {
	name := pack.Info().Name
	specs := make(map[domain.Kind][]ruleSpec)
	rules := make(map[domain.Kind][]rule)
	for _, s := range pack.Rules() {
		if int(s.Kind) < 0 || int(s.Kind) >= numKinds {
			return nil, nil, fmt.Errorf("classify: rule pack %q: rule %s has unknown kind %d", name, s.Category, int(s.Kind))
		}
		if _, ok := scheme.Category(s.Category); !ok {
			return nil, nil, fmt.Errorf("classify: rule pack %q: rule for unknown category %s", name, s.Category)
		}
		strong, err := re(s.Strong)
		if err != nil {
			return nil, nil, fmt.Errorf("classify: rule pack %q: category %s: %w", name, s.Category, err)
		}
		weak, err := re(s.Weak)
		if err != nil {
			return nil, nil, fmt.Errorf("classify: rule pack %q: category %s: %w", name, s.Category, err)
		}
		specs[s.Kind] = append(specs[s.Kind], ruleSpec{category: s.Category, strong: s.Strong, weak: s.Weak})
		rules[s.Kind] = append(rules[s.Kind], rule{
			category: s.Category,
			kind:     s.Kind,
			strong:   strong,
			weak:     weak,
		})
	}
	// Every kind gets a kernel, so a pack without rules for some kind
	// still classifies on the prefiltered path.
	kernels := make(map[domain.Kind]*kindKernel, len(domain.Kinds))
	for _, kind := range domain.Kinds {
		kernels[kind] = buildKindKernel(rules[kind], specs[kind])
	}
	return rules, kernels, nil
}

// Engine is a compiled rule engine over a taxonomy scheme.
type Engine struct {
	rules   map[domain.Kind][]rule
	kernels map[domain.Kind]*kindKernel
	// cats holds the scheme and numbers its categories once, so a
	// report holds its decisions in a dense vector in scheme order.
	cats *categoryIndex
	cfg  Config
	// The memos are nil when Memo is off: memo per kind (indexed by
	// int(kind)) caches clause match vectors, and workarounds and
	// statuses cache the field classifications.
	memo        [numKinds]*memoCache[memoEntry]
	workarounds *memoCache[domain.WorkaroundCategory]
	statuses    *memoCache[domain.FixStatus]
	scratch     sync.Pool // *matchScratch

	// Instruments (nil when Config.Obs is nil; all obs instruments are
	// no-ops on nil receivers, so the hot path carries one branch).
	memoHits      *obs.Counter
	memoMisses    *obs.Counter
	prefCands     *obs.Counter
	prefConfirmed *obs.Counter
}

// Config selects the matching strategy. The zero value is the naive
// reference path: every pattern of every rule is evaluated against
// every segment. All configurations produce bit-identical Reports; the
// flags only trade build work for speed, and exist separately so the
// equivalence tests and the ablation benchmarks can isolate each layer.
type Config struct {
	// Prefilter routes segment matching through the Aho-Corasick
	// literal prefilter (internal/match): each segment is folded and
	// scanned once, and only the surviving candidate patterns run their
	// regexes.
	Prefilter bool
	// Memo caches per-clause match vectors and the workaround and
	// status classifications in bounded maps, exploiting the heavy text
	// reuse of templated errata.
	Memo bool
	// Obs, when non-nil, registers the engine's instruments in the
	// given registry: memo hit/miss/clear counts and prefilter
	// candidate-vs-confirm counts. Instrumentation never changes a
	// classification; it costs a few atomic adds per segment (measured
	// under 2% on BenchmarkClassifyEngine, see EXPERIMENTS.md).
	Obs *obs.Registry
}

// NewEngine returns an engine over the base rule set with the full
// matching kernel (prefilter + memoization) enabled.
func NewEngine() *Engine {
	return NewEngineConfig(Config{Prefilter: true, Memo: true})
}

// NewEngineConfig returns an engine over the default rule pack of the
// plugin registry with the given matching strategy. It panics when no
// default pack is registered (import repro/plugins/defaults) or the
// pack does not compile. Engines are safe for concurrent use.
func NewEngineConfig(cfg Config) *Engine {
	rules, kernels := baseCompiled()
	return newEngine(domain.BaseScheme(), rules, kernels, cfg)
}

// NewEngineFor compiles an engine over an explicit rule pack and
// scheme, for callers that select plugins by name instead of using the
// registry default. A nil scheme selects the base taxonomy.
func NewEngineFor(pack pluginapi.RulePack, scheme *domain.Scheme, cfg Config) (*Engine, error) {
	if scheme == nil {
		scheme = domain.BaseScheme()
	}
	rules, kernels, err := compileRules(pack, scheme)
	if err != nil {
		return nil, err
	}
	return newEngine(scheme, rules, kernels, cfg), nil
}

func newEngine(scheme *domain.Scheme, rules map[domain.Kind][]rule, kernels map[domain.Kind]*kindKernel, cfg Config) *Engine {
	e := &Engine{
		rules:   rules,
		kernels: kernels,
		cats:    newCategoryIndex(scheme),
		cfg:     cfg,
	}
	if cfg.Obs != nil {
		e.memoHits = cfg.Obs.Counter("rememberr_classify_memo_hits_total",
			"Clause-memo lookups answered from the cache.")
		e.memoMisses = cfg.Obs.Counter("rememberr_classify_memo_misses_total",
			"Clause-memo lookups that fell through to matching.")
		e.prefCands = cfg.Obs.Counter("rememberr_classify_prefilter_candidates_total",
			"Patterns surviving the Aho-Corasick literal prefilter.")
		e.prefConfirmed = cfg.Obs.Counter("rememberr_classify_prefilter_confirmed_total",
			"Prefilter candidates confirmed by their full regex.")
	}
	if cfg.Memo {
		clears := cfg.Obs.Counter("rememberr_classify_memo_clears_total",
			"Clear-on-full resets of the clause memo.")
		for i := range e.memo {
			e.memo[i] = newMemoCache[memoEntry](memoMaxEntries, clears)
		}
		e.workarounds = newMemoCache[domain.WorkaroundCategory](memoMaxEntries, nil)
		e.statuses = newMemoCache[domain.FixStatus](memoMaxEntries, nil)
	}
	maxRules := 0
	for _, rules := range e.rules {
		if len(rules) > maxRules {
			maxRules = len(rules)
		}
	}
	e.scratch.New = func() any {
		return &matchScratch{rules: make([]uint8, maxRules), cands: make([]int, 0, 64)}
	}
	return e
}

// Scheme returns the scheme the engine classifies against.
func (e *Engine) Scheme() *domain.Scheme { return e.cats.scheme }

// matchSegment evaluates every rule of a kind against one text segment
// and reports the strongly and weakly matched categories. The returned
// slices may be shared between reports (they can come from the memo
// cache) and must be treated as read-only.
func (e *Engine) matchSegment(kind domain.Kind, text string) (strong, weak []string) {
	if e.cfg.Memo {
		if m, ok := e.memo[kind].get(text); ok {
			e.memoHits.Inc()
			return m.strong, m.weak
		}
		e.memoMisses.Inc()
	}
	if e.cfg.Prefilter {
		strong, weak = e.matchKernel(kind, text)
	} else {
		strong, weak = e.matchNaive(kind, text)
	}
	if e.cfg.Memo {
		e.memo[kind].put(text, memoEntry{strong: strong, weak: weak})
	}
	return strong, weak
}

// Workaround is ClassifyWorkaround, memoized per distinct text when the
// engine's Memo is on.
func (e *Engine) Workaround(text string) domain.WorkaroundCategory {
	return memoized(e.workarounds, text, ClassifyWorkaround)
}

// Status is ClassifyStatus, memoized per distinct text when the
// engine's Memo is on.
func (e *Engine) Status(text string) domain.FixStatus {
	return memoized(e.statuses, text, ClassifyStatus)
}

// matchNaive is the reference path: every pattern of every rule runs
// against the segment. The kernel path must reproduce its output
// exactly.
func (e *Engine) matchNaive(kind domain.Kind, text string) (strong, weak []string) {
	for _, r := range e.rules[kind] {
		matched := false
		for _, p := range r.strong {
			if p.MatchString(text) {
				strong = append(strong, r.category)
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		for _, p := range r.weak {
			if p.MatchString(text) {
				weak = append(weak, r.category)
				break
			}
		}
	}
	return strong, weak
}
