package classify

import (
	"regexp"
	"sort"
	"strings"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// Decision is the outcome of the conservative auto-filter for one
// (erratum, category) pair.
type Decision int

const (
	// Exclude: the category is clearly irrelevant for the erratum.
	Exclude Decision = iota
	// Undecided: the pair needs a human decision.
	Undecided
	// Include: the category clearly applies.
	Include
)

// String returns the decision label.
func (d Decision) String() string {
	switch d {
	case Exclude:
		return "exclude"
	case Undecided:
		return "undecided"
	case Include:
		return "include"
	default:
		return "invalid"
	}
}

// Segment is one classified region of an erratum's text: a trigger
// clause, context clause or effect clause, together with the matched
// categories.
type Segment struct {
	// Kind tells which annotation dimension the segment belongs to.
	Kind taxonomy.Kind
	// Text is the clause text (the concrete-level description).
	Text string
	// Field is the erratum field the segment came from ("Description"
	// or "Implication").
	Field string
	// Strong lists categories whose distinctive patterns matched.
	Strong []string
	// Weak lists categories with suggestive matches only.
	Weak []string
	// Advisory marks segments scanned as corroborating evidence only
	// (e.g. the implication field repeats the effects); strong matches
	// in advisory segments do not auto-include.
	Advisory bool
}

// Report is the auto-classification of one erratum.
type Report struct {
	// Decisions maps every abstract category to its filter outcome.
	Decisions map[string]Decision
	// Concrete maps included or undecided categories to the clause that
	// triggered the match.
	Concrete map[string]string
	// Segments lists the classified clauses in text order.
	Segments []Segment
	// MSRs lists registers named as observation points ("The affected
	// state may be observed in the X register").
	MSRs []string
	// SuspiciousMSRs lists raw MSR tokens that do not belong to the
	// known register vocabulary (the paper found erroneous MSR numbers
	// in 3 errata).
	SuspiciousMSRs []string
	// Complex is set when the text mentions a complex set of conditions.
	Complex bool
	// Trivial is set when the text reports only trivial triggers.
	Trivial bool
	// SimulationOnly is set when the bug was only observed in
	// simulation.
	SimulationOnly bool
	// WorkaroundCat is the classified workaround category (Figure 6).
	WorkaroundCat domain.WorkaroundCategory
	// Fix is the classified fix status (Figure 7).
	Fix domain.FixStatus
}

// UndecidedPairs returns the categories requiring human decisions, in
// scheme order.
func (r *Report) UndecidedPairs(scheme domain.Scheme) []string {
	var out []string
	for cat, d := range r.Decisions {
		if d == Undecided {
			out = append(out, cat)
		}
	}
	return scheme.SortCategoryIDs(out)
}

// IncludedCategories returns the auto-included categories in scheme
// order.
func (r *Report) IncludedCategories(scheme domain.Scheme) []string {
	var out []string
	for cat, d := range r.Decisions {
		if d == Include {
			out = append(out, cat)
		}
	}
	return scheme.SortCategoryIDs(out)
}

// The extractor pattern sources are named so the flags kernel
// (kernel.go) can extract required literals from the exact source each
// regex was compiled from.
const (
	complexSrc = `(?i)complex set of .*conditions|highly specific and detailed set`
	trivialSrc = `(?i)normal operation with ordinary load and store|intense workloads|routine execution`
	simOnlySrc = `(?i)only been observed in simulation`
	msrObsSrc  = `observed in the ([A-Za-z0-9_]+) register`
	msrRawSrc  = `\bMSR 0x[0-9A-Fa-f_]+\b`
)

var (
	complexRe = regexp.MustCompile(complexSrc)
	trivialRe = regexp.MustCompile(trivialSrc)
	msrObsRe  = regexp.MustCompile(msrObsSrc)
	simOnlyRe = regexp.MustCompile(simOnlySrc)
	msrRawRe  = regexp.MustCompile(msrRawSrc)
)

// knownMSRVocabulary is the register vocabulary of Figure 19; tokens
// outside it are flagged as suspicious.
var knownMSRVocabulary = map[string]bool{
	"MCx_STATUS": true, "MCx_ADDR": true,
	"IA32_PERF_STATUS": true, "IA32_PMCx": true, "IA32_FIXED_CTRx": true,
	"IA32_THERM_STATUS": true, "IA32_APIC_BASE": true, "IA32_DEBUGCTL": true,
	"IA32_MISC_ENABLE": true, "IA32_TSC": true,
	"IBS_FETCH_CTL": true, "IBS_OP_DATA": true, "PERF_CTRx": true,
	"HWCR": true, "APIC_BASE": true, "TSC": true,
}

// Classify runs the rule engine over one erratum.
func (e *Engine) Classify(err *domain.Erratum) *Report {
	r := &Report{
		Decisions: make(map[string]Decision, len(e.catIDs)),
		Concrete:  make(map[string]string),
	}
	for _, id := range e.catIDs {
		r.Decisions[id] = Exclude
	}

	segments := e.segment(err)
	for i := range segments {
		seg := &segments[i]
		seg.Strong, seg.Weak = e.matchSegment(seg.Kind, seg.Text)
		if seg.Advisory {
			// Advisory evidence never auto-includes; it only surfaces
			// categories for review.
			for _, cats := range [2][]string{seg.Strong, seg.Weak} {
				for _, cat := range cats {
					if r.Decisions[cat] == Exclude {
						r.Decisions[cat] = Undecided
						if _, ok := r.Concrete[cat]; !ok {
							r.Concrete[cat] = seg.Text
						}
					}
				}
			}
			continue
		}
		switch {
		case len(seg.Strong) == 1:
			cat := seg.Strong[0]
			r.Decisions[cat] = Include
			r.Concrete[cat] = seg.Text
			// Weak matches on the same segment still need review: a
			// clause can carry evidence for two categories.
			for _, w := range seg.Weak {
				if r.Decisions[w] == Exclude {
					r.Decisions[w] = Undecided
					if _, ok := r.Concrete[w]; !ok {
						r.Concrete[w] = seg.Text
					}
				}
			}
		default:
			// No strong match, or conflicting strong matches: every
			// surfaced category goes to the humans.
			for _, cats := range [2][]string{seg.Strong, seg.Weak} {
				for _, cat := range cats {
					if r.Decisions[cat] != Include {
						r.Decisions[cat] = Undecided
					}
					if _, ok := r.Concrete[cat]; !ok {
						r.Concrete[cat] = seg.Text
					}
				}
			}
		}
	}
	r.Segments = segments

	full := err.Description + " " + err.Implication
	// One automaton scan over the full text rules out extractors whose
	// required literal is absent; only the survivors run their regexes.
	// hit bits are a superset of the true matches, so skipping on a
	// cleared bit cannot change any result. (The Trivial and MSR
	// extractors scan only the description, for which candidacy on the
	// longer text is still a sound over-approximation.)
	hit := [5]bool{true, true, true, true, true}
	if e.cfg.Prefilter {
		hit = e.flagCandidates(full)
	}
	r.Complex = hit[idxComplex] && complexRe.MatchString(full)
	r.Trivial = hit[idxTrivial] && trivialRe.MatchString(err.Description)
	r.SimulationOnly = hit[idxSimOnly] && simOnlyRe.MatchString(full)

	if hit[idxMSRObs] {
		for _, m := range msrObsRe.FindAllStringSubmatch(err.Description, -1) {
			r.MSRs = append(r.MSRs, m[1])
			if !knownMSRVocabulary[m[1]] {
				r.SuspiciousMSRs = append(r.SuspiciousMSRs, m[1])
			}
		}
	}
	if hit[idxMSRRaw] {
		for _, m := range msrRawRe.FindAllString(full, -1) {
			r.SuspiciousMSRs = append(r.SuspiciousMSRs, m)
		}
	}

	r.WorkaroundCat = ClassifyWorkaround(err.Workaround)
	r.Fix = ClassifyStatus(err.Status)
	return r
}

// segment splits an erratum's description and implication into
// kind-scoped clauses following the documents' sentence conventions.
func (e *Engine) segment(err *domain.Erratum) []Segment {
	var out []Segment
	for _, sentence := range splitSentences(err.Description) {
		switch {
		case strings.HasPrefix(sentence, "When "):
			body := strings.TrimPrefix(sentence, "When ")
			if i := strings.Index(body, ", "); i >= 0 {
				trigPart, effPart := body[:i], body[i+2:]
				for _, clause := range strings.Split(trigPart, " and ") {
					out = append(out, Segment{Kind: taxonomy.Trigger, Text: clause, Field: "Description"})
				}
				out = append(out, Segment{Kind: taxonomy.Effect, Text: effPart, Field: "Description"})
			} else {
				out = append(out, Segment{Kind: taxonomy.Trigger, Text: body, Field: "Description"})
			}
		case strings.HasPrefix(sentence, "This erratum applies while "):
			body := strings.TrimPrefix(sentence, "This erratum applies while ")
			for _, clause := range strings.Split(body, " or while ") {
				out = append(out, Segment{Kind: taxonomy.Context, Text: clause, Field: "Description"})
			}
		case strings.HasPrefix(sentence, "In addition, "):
			out = append(out, Segment{Kind: taxonomy.Effect,
				Text: strings.TrimPrefix(sentence, "In addition, "), Field: "Description"})
		case strings.HasPrefix(sentence, "The affected state may be observed"),
			strings.HasPrefix(sentence, "The erroneous value is latched"):
			// MSR sentences are handled by the extractors.
		case e.isFlagSentence(sentence):
			// Flag sentences are handled by the extractors.
		default:
			// Unknown sentence shape: scan as advisory effect evidence.
			out = append(out, Segment{Kind: taxonomy.Effect, Text: sentence,
				Field: "Description", Advisory: true})
		}
	}
	// The implication field redundantly repeats the effects; it is
	// scanned as advisory evidence only.
	for _, sentence := range splitSentences(err.Implication) {
		for _, clause := range strings.Split(sentence, "; ") {
			out = append(out, Segment{Kind: taxonomy.Effect, Text: clause,
				Field: "Implication", Advisory: true})
		}
	}
	return out
}

// splitSentences splits free text on sentence boundaries, stripping the
// trailing period.
func splitSentences(text string) []string {
	var out []string
	for _, s := range strings.Split(text, ". ") {
		s = strings.TrimSuffix(strings.TrimSpace(s), ".")
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

var (
	waNoneRe    = regexp.MustCompile(`(?i)^none identified`)
	waAbsentRe  = regexp.MustCompile(`(?i)^contact your`)
	waBIOSRe    = regexp.MustCompile(`(?i)\bbios\b`)
	waSWRe      = regexp.MustCompile(`(?i)system software|software should`)
	waPeriphRe  = regexp.MustCompile(`(?i)\bdevice\b|\bperipheral\b`)
	waDocRe     = regexp.MustCompile(`(?i)documentation`)
	stNoFixRe   = regexp.MustCompile(`(?i)no fix`)
	stPlannedRe = regexp.MustCompile(`(?i)planned|subsequent revision`)
	stFixedRe   = regexp.MustCompile(`(?i)\bfixed\b`)
)

// ClassifyWorkaround assigns a workaround category from the workaround
// field text, following Section IV-B3: "Contact ..." statements count as
// Absent even when they mention the BIOS.
func ClassifyWorkaround(text string) domain.WorkaroundCategory {
	t := strings.TrimSpace(text)
	switch {
	case t == "" || waNoneRe.MatchString(t):
		return domain.WorkaroundNone
	case waAbsentRe.MatchString(t):
		return domain.WorkaroundAbsent
	case waDocRe.MatchString(t):
		return domain.WorkaroundDocFix
	case waBIOSRe.MatchString(t):
		return domain.WorkaroundBIOS
	case waSWRe.MatchString(t):
		return domain.WorkaroundSoftware
	case waPeriphRe.MatchString(t):
		return domain.WorkaroundPeripherals
	default:
		return domain.WorkaroundAbsent
	}
}

// ClassifyStatus assigns a fix status from the status field text.
func ClassifyStatus(text string) domain.FixStatus {
	t := strings.TrimSpace(text)
	switch {
	case t == "" || stNoFixRe.MatchString(t):
		return domain.FixNone
	case stPlannedRe.MatchString(t):
		return domain.FixPlanned
	case stFixedRe.MatchString(t):
		return domain.FixDone
	default:
		return domain.FixNone
	}
}

// Stats aggregates the decision accounting over a set of reports
// (Section V-A: 67,680 raw decisions reduced to 2,064 per human).
type Stats struct {
	// Errata is the number of classified errata.
	Errata int
	// RawDecisions is errata x categories, the unassisted workload.
	RawDecisions int
	// AutoIncluded, AutoExcluded and Undecided partition RawDecisions.
	AutoIncluded int
	AutoExcluded int
	Undecided    int
}

// ReductionFactor is the workload reduction achieved by the filter.
func (s Stats) ReductionFactor() float64 {
	if s.Undecided == 0 {
		return float64(s.RawDecisions)
	}
	return float64(s.RawDecisions) / float64(s.Undecided)
}

// Accumulate adds one report to the statistics.
func (s *Stats) Accumulate(r *Report) {
	s.Errata++
	for _, d := range r.Decisions {
		s.RawDecisions++
		switch d {
		case Include:
			s.AutoIncluded++
		case Exclude:
			s.AutoExcluded++
		case Undecided:
			s.Undecided++
		}
	}
}

// Highlight renders the classified segments of a report as an annotated
// text: each clause is wrapped in [Category|...] markers, reproducing
// the syntax-highlighting tool the paper built to assist the human
// annotators.
func Highlight(err *domain.Erratum, r *Report) string {
	var b strings.Builder
	b.WriteString("Title: " + err.Title + "\n")
	b.WriteString("Description: " + err.Description + "\n")
	b.WriteString("Relevant regions:\n")
	segs := append([]Segment(nil), r.Segments...)
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].Kind < segs[j].Kind })
	for _, seg := range segs {
		cats := append(append([]string(nil), seg.Strong...), seg.Weak...)
		if len(cats) == 0 {
			continue
		}
		marker := "?"
		if len(seg.Strong) == 1 && !seg.Advisory {
			marker = "!"
		}
		b.WriteString("  [" + strings.Join(cats, ",") + marker + "] " + seg.Text + "\n")
	}
	return b.String()
}
