// Package annotate simulates RemembERR's four-eyes classification
// protocol (Section V-A of the paper).
//
// The regex filter of the classify package leaves a residue of
// undecided (erratum, category) pairs. In the paper, two researchers
// decided these pairs independently, then discussed and resolved every
// mismatch, iterating in seven successive batches; inter-annotator
// agreement stayed generally above 80% and improved across steps
// (Figures 8 and 9).
//
// Here the two annotators are simulated: each answers with the ground
// truth flipped at an error rate that decays across discussion steps
// (the discussions sharpen the category definitions). Mismatches are
// resolved by "discussion", which recovers the truth — exactly the
// fixed point the paper's protocol converges to, since the published
// database is the post-discussion consensus.
package annotate

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/classify"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// Truth supplies the ground-truth annotation for an erratum — the role
// played by careful human reading in the paper. It returns nil when no
// truth is known, in which case undecided pairs resolve to exclude.
type Truth func(e *domain.Erratum) *domain.Annotation

// Options configures the protocol simulation.
type Options struct {
	// Seed drives the annotator error processes.
	Seed int64
	// Steps is the number of discussion batches (the paper used 7).
	Steps int
	// ErrorA and ErrorB are the initial per-decision error rates of the
	// two annotators.
	ErrorA, ErrorB float64
	// Decay is the per-step multiplicative decay of the error rates.
	Decay float64
	// StepFractions gives the fraction of errata processed in each
	// step; it must have Steps entries summing to ~1. Nil selects the
	// default batching.
	StepFractions []float64
	// Workers is the number of goroutines classifying errata (the
	// regex stage is embarrassingly parallel; the annotator simulation
	// stays sequential for determinism). 0 selects GOMAXPROCS.
	Workers int
	// Trace, when non-nil, receives child spans for the stage's phases
	// (regex classification, the protocol simulation, annotation
	// propagation). Tracing never affects results.
	Trace *obs.Span
}

// DefaultOptions returns the calibration used for the paper figures.
func DefaultOptions() Options {
	return Options{
		Seed:   1,
		Steps:  7,
		ErrorA: 0.08,
		ErrorB: 0.12,
		Decay:  0.85,
		StepFractions: []float64{
			0.06, 0.10, 0.14, 0.15, 0.18, 0.17, 0.20,
		},
	}
}

// StepResult reports one discussion step (one point of Figures 8 and 9).
type StepResult struct {
	// Step is the 1-based step number.
	Step int
	// Errata is the number of errata classified in this step.
	Errata int
	// CumulativeErrata is the running total (Figure 8).
	CumulativeErrata int
	// Decisions is the number of human decisions taken per annotator.
	Decisions int
	// Agreed counts decisions where both annotators agreed before the
	// discussion.
	Agreed int
	// AgreementPct is Agreed/Decisions in percent (Figure 9).
	AgreementPct float64
	// Kappa is Cohen's kappa, the chance-corrected agreement: raw
	// agreement is inflated because most surfaced pairs resolve to
	// exclude, so two annotators agree by chance alone; kappa removes
	// that baseline.
	Kappa float64
}

// Result summarizes a protocol run.
type Result struct {
	// Steps lists the per-step results in order.
	Steps []StepResult
	// FilterStats is the decision accounting of the auto-filter.
	FilterStats classify.Stats
	// HumanDecisions is the total number of per-annotator decisions
	// (the paper reduced this to 2,064).
	HumanDecisions int
	// ResolvedIncludes counts undecided pairs resolved to include.
	ResolvedIncludes int
	// ResolvedExcludes counts undecided pairs resolved to exclude.
	ResolvedExcludes int
}

// Run classifies every unique erratum of the database with the engine,
// simulates the four-eyes protocol on the undecided pairs, and writes
// the resulting annotations back to the database (propagating each
// unique erratum's annotation to all of its duplicate occurrences).
func Run(db *domain.Database, engine *classify.Engine, truth Truth, opts Options) (*Result, error) {
	if opts.Steps <= 0 {
		return nil, fmt.Errorf("annotate: Steps must be positive")
	}
	fractions := opts.StepFractions
	if fractions == nil {
		fractions = DefaultOptions().StepFractions
	}
	if len(fractions) != opts.Steps {
		return nil, fmt.Errorf("annotate: %d step fractions for %d steps", len(fractions), opts.Steps)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	scheme := engine.Scheme()
	res := &Result{}

	// The paper classified Intel errata first, then AMD (Figure 9 is
	// chronological in that order).
	uniques := append(db.UniqueVendor(domain.Intel), db.UniqueVendor(domain.AMD)...)

	// Classify everything up front. The regex stage dominates the
	// pipeline cost and is embarrassingly parallel; the reports are
	// deterministic per erratum, so parallelism does not affect the
	// result.
	csp := opts.Trace.StartChild("classify")
	csp.SetItems(len(uniques))
	reports := classifyAll(engine, uniques, opts.Workers)
	for _, rep := range reports {
		res.FilterStats.Accumulate(rep)
	}
	csp.End()
	psp := opts.Trace.StartChild("protocol")
	psp.SetItems(len(uniques))

	// Batch boundaries.
	bounds := stepBounds(len(uniques), fractions)

	errA, errB := opts.ErrorA, opts.ErrorB
	start := 0
	for step := 1; step <= opts.Steps; step++ {
		end := bounds[step-1]
		sr := StepResult{Step: step, Errata: end - start}
		var posA, posB, bothPos, bothNeg int
		for i := start; i < end; i++ {
			e, rep := uniques[i], reports[i]
			var truthAnn *domain.Annotation
			if truth != nil {
				truthAnn = truth(e)
			}
			for _, cat := range rep.UndecidedPairs(scheme) {
				isTrue := truthHas(truthAnn, cat)
				a := decide(rng, isTrue, errA)
				b := decide(rng, isTrue, errB)
				sr.Decisions++
				if a == b {
					sr.Agreed++
					if a {
						bothPos++
					} else {
						bothNeg++
					}
				}
				if a {
					posA++
				}
				if b {
					posB++
				}
				// The discussion resolves every pair to the truth.
				if isTrue {
					res.ResolvedIncludes++
				} else {
					res.ResolvedExcludes++
				}
			}
			applyAnnotation(e, rep, truthAnn, scheme)
		}
		if sr.Decisions > 0 {
			sr.AgreementPct = 100 * float64(sr.Agreed) / float64(sr.Decisions)
			sr.Kappa = cohenKappa(sr.Decisions, sr.Agreed, posA, posB)
		} else {
			sr.AgreementPct = 100
			sr.Kappa = 1
		}
		sr.CumulativeErrata = end
		res.HumanDecisions += sr.Decisions
		res.Steps = append(res.Steps, sr)
		start = end
		errA *= opts.Decay
		errB *= opts.Decay
	}

	psp.End()
	// Propagate unique annotations to duplicate occurrences, and apply
	// the per-occurrence workaround and status classification.
	prsp := opts.Trace.StartChild("propagate")
	propagate(db, engine)
	prsp.End()
	return res, nil
}

// classifyAll runs the engine over the errata with a worker pool.
func classifyAll(engine *classify.Engine, errata []*domain.Erratum, workers int) []*classify.Report {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(errata) {
		workers = len(errata)
	}
	reports := make([]*classify.Report, len(errata))
	if workers <= 1 {
		for i, e := range errata {
			reports[i] = engine.Classify(e)
		}
		return reports
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i] = engine.Classify(errata[i])
			}
		}()
	}
	for i := range errata {
		next <- i
	}
	close(next)
	wg.Wait()
	return reports
}

// cohenKappa computes Cohen's kappa from the decision counts: po is
// the observed agreement, pe the agreement expected by chance from the
// annotators' marginal include rates.
func cohenKappa(n, agreed, posA, posB int) float64 {
	po := float64(agreed) / float64(n)
	pA, pB := float64(posA)/float64(n), float64(posB)/float64(n)
	pe := pA*pB + (1-pA)*(1-pB)
	if pe >= 1 {
		return 1
	}
	return (po - pe) / (1 - pe)
}

func stepBounds(n int, fractions []float64) []int {
	bounds := make([]int, len(fractions))
	acc := 0.0
	for i, f := range fractions {
		acc += f
		b := int(acc * float64(n))
		if b > n {
			b = n
		}
		bounds[i] = b
	}
	bounds[len(bounds)-1] = n
	return bounds
}

func decide(rng *rand.Rand, truth bool, errRate float64) bool {
	if rng.Float64() < errRate {
		return !truth
	}
	return truth
}

func truthHas(ann *domain.Annotation, cat string) bool {
	if ann == nil {
		return false
	}
	return ann.Has(cat)
}

// truthConcrete returns the ground-truth concrete text for a category.
func truthConcrete(ann *domain.Annotation, cat string) (string, bool) {
	if ann == nil {
		return "", false
	}
	for _, k := range taxonomy.Kinds {
		for _, it := range ann.Items(k) {
			if it.Category == cat {
				return it.Concrete, true
			}
		}
	}
	return "", false
}

// applyAnnotation writes the final (post-discussion) annotation of one
// unique erratum: auto-included categories plus undecided categories
// resolved to the truth.
func applyAnnotation(e *domain.Erratum, rep *classify.Report, truthAnn *domain.Annotation, scheme domain.Scheme) {
	var ann domain.Annotation
	add := func(cat, concrete string) {
		c, ok := scheme.Category(cat)
		if !ok {
			return
		}
		item := domain.Item{Category: cat, Concrete: concrete}
		switch c.Kind {
		case taxonomy.Trigger:
			ann.Triggers = append(ann.Triggers, item)
		case taxonomy.Context:
			ann.Contexts = append(ann.Contexts, item)
		case taxonomy.Effect:
			ann.Effects = append(ann.Effects, item)
		}
	}
	for _, cat := range rep.IncludedCategories(scheme) {
		add(cat, rep.Concrete[cat])
	}
	for _, cat := range rep.UndecidedPairs(scheme) {
		if truthHas(truthAnn, cat) {
			// The human annotator writes the concrete description while
			// resolving the pair.
			concrete, _ := truthConcrete(truthAnn, cat)
			if concrete == "" {
				concrete = rep.Concrete[cat]
			}
			add(cat, concrete)
		}
	}
	ann.MSRs = filterKnownMSRs(rep.MSRs)
	ann.ComplexConditions = rep.Complex
	ann.TrivialTrigger = rep.Trivial
	ann.SimulationOnly = rep.SimulationOnly
	e.Ann = ann
	e.WorkaroundCat = rep.WorkaroundCat
	e.Fix = rep.Fix
}

func filterKnownMSRs(msrs []string) []string {
	var out []string
	for _, m := range msrs {
		out = append(out, m)
	}
	return out
}

// propagate copies each unique representative's annotation to all other
// occurrences of its cluster, and classifies the per-occurrence
// workaround and status fields (which can legitimately differ across
// occurrences, e.g. a later stepping fixes the bug).
func propagate(db *domain.Database, engine *classify.Engine) {
	repAnn := make(map[string]domain.Annotation)
	for _, e := range db.Unique() {
		if e.Key != "" {
			repAnn[vendorKey(e)] = e.Ann
		}
	}
	uniqueSet := make(map[*domain.Erratum]bool)
	for _, e := range db.Unique() {
		uniqueSet[e] = true
	}
	keys := make([]string, 0, len(db.Docs))
	for k := range db.Docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, e := range db.Docs[k].Errata {
			if uniqueSet[e] || e.Key == "" {
				continue
			}
			if ann, ok := repAnn[vendorKey(e)]; ok {
				e.Ann = ann.Clone()
			}
			e.WorkaroundCat = classify.ClassifyWorkaround(e.Workaround)
			e.Fix = classify.ClassifyStatus(e.Status)
		}
	}
}

func vendorKey(e *domain.Erratum) string { return e.DocKeyVendor() + "|" + e.Key }
