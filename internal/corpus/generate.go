package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/taxonomy"
	"repro/internal/textsim"
	"repro/pkg/domain"
	"repro/pkg/pluginapi"
)

// EntryRef identifies one erratum entry unambiguously even when a
// document reuses an erratum name (the AAJ143-style error): "docKey#seq".
func EntryRef(e *domain.Erratum) string { return fmt.Sprintf("%s#%d", e.DocKey, e.Seq) }

// FieldError records an injected missing or duplicated erratum field.
type FieldError struct {
	// Ref is the entry reference ("docKey#seq").
	Ref string
	// Field is the affected field name ("Implication", "Workaround", ...).
	Field string
	// Kind is "missing" or "duplicate".
	Kind string
}

// ErrorInventory records every injected "errata in errata" document
// error, matching the inventory of Section IV-A of the paper.
type ErrorInventory struct {
	// DoubleAddedRevisions lists entries whose ID two revisions both
	// claim to have added (8 errata across 3 documents).
	DoubleAddedRevisions []string
	// MissingFromNotes lists entries never mentioned in the revision
	// notes (12 errata across 2 documents).
	MissingFromNotes []string
	// ReusedName holds the two entries sharing the same erratum name
	// within one document (the AAJ143 case).
	ReusedName [2]string
	// FieldErrors lists missing or duplicate fields (7 errata across 4
	// documents).
	FieldErrors []FieldError
	// WrongMSRNumbers lists entries whose description carries an
	// erroneous MSR number (3 errata across 3 documents).
	WrongMSRNumbers []string
	// IntraDocDuplicates lists pairs of entries repeating the same
	// erratum inside one document (11 pairs across 6 documents).
	IntraDocDuplicates [][2]string
}

// GroundTruth is the output of the generator: the fully annotated and
// keyed database, plus everything the pipeline is expected to recover.
type GroundTruth struct {
	// DB is the ground-truth database (annotations and cluster keys
	// set). It is left out of the JSON form: a cached ground truth
	// carries it as its store.Artifact's database.
	DB *domain.Database `json:"-"`
	// Lineages maps ground-truth keys to lineages.
	Lineages map[string]*Lineage
	// ConfirmedPairs lists entry-reference pairs whose titles were
	// deliberately varied; the paper's humans confirmed 29 such pairs
	// manually. The dedup stage consults these through an oracle.
	ConfirmedPairs [][2]string
	// Inventory records the injected document errors.
	Inventory ErrorInventory
	// Seed is the generator seed.
	Seed int64
}

// lineageText is the rendered erratum text shared by all occurrences of
// a lineage.
type lineageText struct {
	title       string
	description string
	implication string
	workaround  string
	status      string
	variant     string // alternative title used by at most one occurrence
}

type generator struct {
	rng      *rand.Rand
	spec     pluginapi.CorpusSpec
	profiles map[string]DocProfile
	seen     map[string]bool // normalized titles, for global uniqueness
}

// Generate produces the synthetic corpus for the given seed using the
// default corpus profile of the plugin registry. It fails when no
// default profile is registered (import repro/plugins/defaults). The
// result is deterministic per seed.
func Generate(seed int64) (*GroundTruth, error) {
	spec, err := defaultSpec()
	if err != nil {
		return nil, err
	}
	return GenerateWith(spec, seed)
}

// GenerateWith produces the synthetic corpus for an explicit profile
// spec. Custom profiles with Calibration.SharedGens6To10 > 0 must
// include the Intel Table III document keys the pinned shared lineages
// span; setting it (and LineagesCore1To10) to zero disables those
// lineages. The result is deterministic per (spec, seed).
func GenerateWith(spec pluginapi.CorpusSpec, seed int64) (*GroundTruth, error) {
	g := &generator{
		rng:      rand.New(rand.NewSource(seed)),
		spec:     spec,
		profiles: make(map[string]DocProfile),
		seen:     make(map[string]bool),
	}
	for _, p := range spec.IntelDocs {
		g.profiles[p.Key] = p
	}
	for _, p := range spec.AMDDocs {
		g.profiles[p.Key] = p
	}

	// Intra-document duplicate reservations (11 pairs across 6 Intel
	// documents; AMD's shared numbering rules intra-document duplicates
	// out, as the paper notes).
	intraDup := map[string]int{
		"intel-01d": 2, "intel-02d": 2, "intel-03m": 2,
		"intel-04m": 2, "intel-06": 2, "intel-08": 1,
	}
	linI, err := planIntel(spec, intraDup)
	if err != nil {
		return nil, err
	}
	linA, err := planAMD(spec, nil)
	if err != nil {
		return nil, err
	}

	gt := &GroundTruth{
		DB:       domain.NewDatabase(taxonomy.Base()),
		Lineages: make(map[string]*Lineage),
		Seed:     seed,
	}
	for i := range linI {
		gt.Lineages[linI[i].Key] = &linI[i]
	}
	for i := range linA {
		gt.Lineages[linA[i].Key] = &linA[i]
	}

	// Per-document revision histories, built in a deterministic order.
	profileKeys := make([]string, 0, len(g.profiles))
	for key := range g.profiles {
		profileKeys = append(profileKeys, key)
	}
	sort.Strings(profileKeys)
	revs := make(map[string][]domain.Revision)
	for _, key := range profileKeys {
		revs[key] = g.buildRevisions(g.profiles[key])
	}

	// Per-lineage discovery dates, annotations and texts.
	disc := make(map[string]time.Time)
	anns := make(map[string]domain.Annotation)
	texts := make(map[string]*lineageText)
	for _, lin := range [][]Lineage{linI, linA} {
		for i := range lin {
			l := &lin[i]
			intel := strings.HasPrefix(l.Docs[0], "intel")
			disc[l.Key] = g.discoveryDate(l)
			ann := g.sampleAnnotation(intel, l)
			anns[l.Key] = ann
			texts[l.Key] = g.buildText(intel, ann)
		}
	}

	// AMD global numeric identifiers, assigned in discovery order.
	amdID := make(map[string]string)
	amdKeys := make([]string, 0, len(linA))
	for i := range linA {
		amdKeys = append(amdKeys, linA[i].Key)
	}
	sort.Slice(amdKeys, func(i, j int) bool {
		di, dj := disc[amdKeys[i]], disc[amdKeys[j]]
		if !di.Equal(dj) {
			return di.Before(dj)
		}
		return amdKeys[i] < amdKeys[j]
	})
	for i, k := range amdKeys {
		amdID[k] = fmt.Sprintf("%d", 57+i)
	}

	// Choose the 29 Intel lineages that get a title variant in their
	// latest occurrence.
	variantSet := g.chooseVariantLineages(linI, 29)
	variantKeys := make([]string, 0, len(variantSet))
	for key := range variantSet {
		variantKeys = append(variantKeys, key)
	}
	sort.Strings(variantKeys)
	for _, key := range variantKeys {
		t := texts[key]
		t.variant = g.makeTitleVariant(t.title)
	}

	// Assemble the documents.
	for _, vendorLins := range [][]Lineage{linI, linA} {
		byDoc := make(map[string][]*Lineage)
		for i := range vendorLins {
			l := &vendorLins[i]
			for _, dk := range l.Docs {
				byDoc[dk] = append(byDoc[dk], l)
			}
		}
		docKeys := make([]string, 0, len(byDoc))
		for dk := range byDoc {
			docKeys = append(docKeys, dk)
		}
		sort.Strings(docKeys)
		for _, dk := range docKeys {
			p := g.profiles[dk]
			doc := g.assembleDocument(p, revs[dk], byDoc[dk], disc, anns, texts, amdID, variantSet, gt)
			if err := gt.DB.Add(doc); err != nil {
				return nil, err
			}
		}
	}

	// Inject intra-document duplicate entries.
	g.injectIntraDocDuplicates(gt, intraDup, anns)

	// Inject the remaining document errors.
	g.injectRevisionErrors(gt)
	g.injectReusedName(gt)
	g.injectFieldErrors(gt)
	g.injectWrongMSRs(gt)

	// Simulation-only errata: one Intel and five AMD errata mention
	// that the bug has only been observed in simulation (Section V-B).
	g.markSimulationOnly(gt)

	// Withdrawn errata: about 2% of entries are listed in the summary of
	// changes with their details removed (Section VII). Intel only.
	for _, p := range spec.IntelDocs {
		doc := gt.DB.Docs[p.Key]
		if doc == nil {
			continue
		}
		n := p.Count / 50
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			doc.Withdrawn = append(doc.Withdrawn,
				fmt.Sprintf("%s%03d", p.Prefix, len(doc.Errata)+1+i))
		}
	}

	domain.AssignOrders(gt.DB)
	if err := gt.DB.Validate(); err != nil {
		return nil, fmt.Errorf("corpus: generated database invalid: %w", err)
	}
	return gt, nil
}

// buildRevisions creates a revision history from the document's release
// to its last update, stepping RevisionMonths with +-1 month of jitter.
func (g *generator) buildRevisions(p DocProfile) []domain.Revision {
	var out []domain.Revision
	date := p.Released.AddDate(0, 1, 0)
	n := 1
	for !date.After(p.LastUpdate) {
		out = append(out, domain.Revision{Number: n, Date: date})
		step := p.RevisionMonths + g.rng.Intn(3) - 1
		if step < 1 {
			step = 1
		}
		date = date.AddDate(0, step, 0)
		n++
	}
	if len(out) == 0 {
		out = append(out, domain.Revision{Number: 1, Date: p.Released.AddDate(0, 1, 0)})
	}
	return out
}

// discoveryDate samples when the bug of a lineage was first discovered.
// Discovery density is concave over the base document's lifetime
// (Observation O2); lineages spanning four or more documents are
// discovered early, so that shared bugs are mostly known before the
// subsequent generation's release (Observation O4).
func (g *generator) discoveryDate(l *Lineage) time.Time {
	base := g.profiles[l.Docs[0]]
	window := monthsBetween(base.Released, base.LastUpdate)
	if window < 1 {
		window = 1
	}
	u := g.rng.Float64()
	frac := u * u // concave cumulative growth
	if l.Span() >= 4 {
		frac = u * u * 0.2 // early discovery for widely shared bugs
	}
	m := int(frac * float64(window))
	return base.Released.AddDate(0, m, 0)
}

func monthsBetween(a, b time.Time) int {
	if b.Before(a) {
		return 0
	}
	return (b.Year()-a.Year())*12 + int(b.Month()) - int(a.Month())
}

// pickWeighted samples an identifier from a weighted table, with
// optional per-identifier multipliers.
func (g *generator) pickWeighted(table []pluginapi.Weighted, mult func(string) float64) string {
	total := 0.0
	for _, w := range table {
		f := w.Weight
		if mult != nil {
			f *= mult(w.ID)
		}
		total += f
	}
	x := g.rng.Float64() * total
	for _, w := range table {
		f := w.Weight
		if mult != nil {
			f *= mult(w.ID)
		}
		x -= f
		if x < 0 {
			return w.ID
		}
	}
	return table[len(table)-1].ID
}

func (g *generator) pickInt(table []pluginapi.Weighted) int {
	id := g.pickWeighted(table, nil)
	n := 0
	fmt.Sscanf(id, "%d", &n)
	return n
}

func (g *generator) pickString(bank []string) string {
	return bank[g.rng.Intn(len(bank))]
}

// sampleAnnotation draws a ground-truth annotation for a lineage.
func (g *generator) sampleAnnotation(intel bool, l *Lineage) domain.Annotation {
	var ann domain.Annotation

	// Trigger-class gating per generation: memory-boundary triggers are
	// absent from the two latest Intel generations (Figure 13).
	banMBR := false
	maxGen := 0
	for _, dk := range l.Docs {
		if gi := g.profiles[dk].GenIndex; gi > maxGen {
			maxGen = gi
		}
	}
	if intel && maxGen >= 11 {
		banMBR = true
	}

	vendorMult := func(id string) float64 {
		f := 1.0
		if b, ok := g.spec.VendorTriggerBias[id]; ok {
			if intel {
				f *= b.Intel
			} else {
				f *= b.AMD
			}
		}
		if banMBR && strings.HasPrefix(id, "Trg_MBR") {
			f = 0
		}
		// Feature triggers gain importance over Intel generations,
		// except in the two most recent ones (Figure 13).
		if intel && strings.HasPrefix(id, "Trg_FEA") && maxGen >= 3 && maxGen <= 10 {
			f *= 1.0 + float64(maxGen)*0.06
		}
		return f
	}

	if g.rng.Float64() < g.spec.Calibration.TrivialTriggerFraction {
		ann.TrivialTrigger = true
	} else {
		n := g.pickInt(g.spec.TriggerCountWeights)
		chosen := make(map[string]bool)
		var first string
		for len(ann.Triggers) < n {
			mult := func(id string) float64 {
				if chosen[id] {
					return 0
				}
				f := vendorMult(id)
				if first != "" {
					if b, ok := g.spec.TriggerPairBoost[[2]string{first, id}]; ok {
						f *= b
					}
					if b, ok := g.spec.TriggerPairBoost[[2]string{id, first}]; ok {
						f *= b
					}
				}
				return f
			}
			id := g.pickWeighted(g.spec.TriggerWeights, mult)
			if chosen[id] {
				continue // all remaining weights may be zero; retry caps below
			}
			chosen[id] = true
			if first == "" {
				first = id
			}
			phraseIdx := g.phraseIndex(len(triggerPhrases[id]))
			ann.Triggers = append(ann.Triggers, domain.Item{
				Category: id,
				Concrete: triggerPhrases[id][phraseIdx],
			})
		}
	}

	nCtx := g.pickInt(g.spec.ContextCountWeights)
	chosenCtx := make(map[string]bool)
	for len(ann.Contexts) < nCtx {
		id := g.pickWeighted(g.spec.ContextWeights, func(id string) float64 {
			if chosenCtx[id] {
				return 0
			}
			return 1
		})
		if chosenCtx[id] {
			continue
		}
		chosenCtx[id] = true
		ann.Contexts = append(ann.Contexts, domain.Item{
			Category: id,
			Concrete: contextPhrases[id][g.phraseIndex(len(contextPhrases[id]))],
		})
	}

	nEff := g.pickInt(g.spec.EffectCountWeights)
	chosenEff := make(map[string]bool)
	for len(ann.Effects) < nEff {
		id := g.pickWeighted(g.spec.EffectWeights, func(id string) float64 {
			if chosenEff[id] {
				return 0
			}
			return 1
		})
		if chosenEff[id] {
			continue
		}
		chosenEff[id] = true
		ann.Effects = append(ann.Effects, domain.Item{
			Category: id,
			Concrete: effectPhrases[id][g.phraseIndex(len(effectPhrases[id]))],
		})
	}

	// Complex-set-of-conditions marker (8.7% Intel, 20.8% AMD).
	p := g.spec.Calibration.ComplexConditionFractionIntel
	if !intel {
		p = g.spec.Calibration.ComplexConditionFractionAMD
	}
	if g.rng.Float64() < p {
		ann.ComplexConditions = true
	}

	// Observable MSRs for register-visible effects (Figure 19).
	if annHasAny(&ann, "Eff_CRP_reg", "Eff_CRP_prf", "Eff_FLT_mca", "Eff_FLT_unc") {
		table := g.spec.MSRWeights
		if !intel {
			table = g.spec.AMDMSRWeights
		}
		msr := g.pickWeighted(table, nil)
		ann.MSRs = append(ann.MSRs, msr)
		if msr == "MCx_STATUS" && g.rng.Float64() < 0.5 {
			ann.MSRs = append(ann.MSRs, "MCx_ADDR")
		}
	}
	return ann
}

// phraseIndex biases towards the keyword-bearing phrasings (the last
// phrasing of every bank is deliberately vague and requires the
// simulated human annotators).
func (g *generator) phraseIndex(n int) int {
	if n <= 1 {
		return 0
	}
	if g.rng.Float64() < 0.72 {
		return g.rng.Intn(n - 1)
	}
	return n - 1
}

func annHasAny(a *domain.Annotation, ids ...string) bool {
	for _, id := range ids {
		if a.Has(id) {
			return true
		}
	}
	return false
}

// buildText renders the erratum fields from a ground-truth annotation.
func (g *generator) buildText(intel bool, ann domain.Annotation) *lineageText {
	t := &lineageText{}
	t.title = g.uniqueTitle(ann)

	var desc []string
	if ann.ComplexConditions {
		desc = append(desc, g.pickString(complexConditionSentences))
	}
	mainEffect := "the described behavior may occur"
	if len(ann.Effects) > 0 {
		mainEffect = ann.Effects[0].Concrete
	}
	if ann.TrivialTrigger {
		desc = append(desc, g.pickString(trivialTriggerSentences))
	} else if len(ann.Triggers) > 0 {
		var clauses []string
		for _, it := range ann.Triggers {
			clauses = append(clauses, it.Concrete)
		}
		desc = append(desc, "When "+strings.Join(clauses, " and ")+", "+mainEffect+".")
	} else {
		desc = append(desc, upperFirst(mainEffect)+".")
	}
	if len(ann.Contexts) > 0 {
		var clauses []string
		for _, it := range ann.Contexts {
			clauses = append(clauses, it.Concrete)
		}
		desc = append(desc, "This erratum applies while "+strings.Join(clauses, " or while ")+".")
	}
	for _, it := range ann.Effects[boolToInt(len(ann.Effects) > 0):] {
		desc = append(desc, "In addition, "+it.Concrete+".")
	}
	for _, msr := range ann.MSRs {
		desc = append(desc, fmt.Sprintf("The affected state may be observed in the %s register.", msr))
	}
	t.description = strings.Join(desc, " ")

	var impl []string
	impl = append(impl, g.pickString(implicationLeads))
	var effs []string
	for _, it := range ann.Effects {
		effs = append(effs, it.Concrete)
	}
	if len(effs) > 0 {
		impl = append(impl, upperFirst(strings.Join(effs, "; "))+".")
	}
	if g.rng.Float64() < 0.3 {
		impl = append(impl, notObservedSentence)
	}
	t.implication = strings.Join(impl, " ")
	return t
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func upperFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// uniqueTitle composes a title that is globally unique (normalized)
// across all lineages so that title-based deduplication never merges
// distinct bugs.
func (g *generator) uniqueTitle(ann domain.Annotation) string {
	for attempt := 0; ; attempt++ {
		title := g.composeTitle(ann)
		if attempt >= 24 {
			title = fmt.Sprintf("%s Under Condition Set %d", title, g.rng.Intn(100000))
		}
		norm := textsim.Normalize(title)
		if !g.seen[norm] {
			g.seen[norm] = true
			return title
		}
	}
}

func (g *generator) composeTitle(ann domain.Annotation) string {
	subject := "Processor"
	if len(ann.Triggers) > 0 {
		cls := taxonomy.Base().ClassOf(ann.Triggers[0].Category)
		if bank, ok := titleSubjects[cls]; ok {
			subject = g.pickString(bank)
		}
	}
	fragment := "Behave Unexpectedly"
	if len(ann.Effects) > 0 {
		if bank, ok := titleFragments[ann.Effects[0].Category]; ok {
			fragment = g.pickString(bank)
		}
	}
	title := subject + " May " + fragment
	// Qualify with a secondary trigger or a context for diversity.
	switch {
	case len(ann.Triggers) > 1:
		title += " When " + upperTitleWords(shortClause(ann.Triggers[1].Concrete))
	case len(ann.Contexts) > 0:
		title += " While " + upperTitleWords(shortClause(ann.Contexts[0].Concrete))
	case len(ann.Triggers) == 1 && g.rng.Float64() < 0.5:
		title += " When " + upperTitleWords(shortClause(ann.Triggers[0].Concrete))
	}
	return title
}

// shortClause trims a concrete phrase to at most six words.
func shortClause(s string) string {
	words := strings.Fields(s)
	if len(words) > 6 {
		words = words[:6]
	}
	return strings.Join(words, " ")
}

func upperTitleWords(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if len(w) > 3 || i == 0 {
			words[i] = strings.ToUpper(w[:1]) + w[1:]
		}
	}
	return strings.Join(words, " ")
}

// chooseVariantLineages picks n multi-document Intel lineages whose
// latest occurrence will bear a slightly different title.
func (g *generator) chooseVariantLineages(lins []Lineage, n int) map[string]bool {
	var candidates []string
	for i := range lins {
		if lins[i].Span() >= 2 && lins[i].Special == "" {
			candidates = append(candidates, lins[i].Key)
		}
	}
	sort.Strings(candidates)
	g.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	out := make(map[string]bool)
	for i := 0; i < n && i < len(candidates); i++ {
		out[candidates[i]] = true
	}
	return out
}

// makeTitleVariant produces a near-identical title (minor phrasing
// variation) that breaks exact normalized equality but stays above the
// similarity threshold of the manual-review ranking, so that the
// variant pair is surfaced to the reviewers (as the paper's 29
// candidate pairs were).
func (g *generator) makeTitleVariant(title string) string {
	variants := []func(string) string{
		func(s string) string { return strings.Replace(s, " May ", " May Incorrectly ", 1) },
		func(s string) string { return strings.Replace(s, "Processor", "The Processor", 1) },
		func(s string) string { return strings.Replace(s, " May ", " Might ", 1) },
		func(s string) string { return s + " in Some Cases" },
	}
	start := g.rng.Intn(len(variants))
	for i := 0; i < len(variants); i++ {
		v := variants[(start+i)%len(variants)](title)
		norm := textsim.Normalize(v)
		if v != title && !g.seen[norm] && textsim.Jaccard(title, v) >= 0.65 {
			g.seen[norm] = true
			return v
		}
	}
	// Guaranteed-high-similarity fallback: a one-word insertion keeps
	// Jaccard at n/(n+1).
	v := strings.Replace(title, " May ", " May Then ", 1)
	if v == title || g.seen[textsim.Normalize(v)] {
		v = "The " + title
	}
	g.seen[textsim.Normalize(v)] = true
	return v
}

// occurrence is a lineage appearing in one document, before entry
// assignment.
type occurrence struct {
	lin    *Lineage
	report time.Time
	rev    int
}

// assembleDocument builds one domain.Document from the lineages that
// affect it.
func (g *generator) assembleDocument(
	p DocProfile,
	revisions []domain.Revision,
	lins []*Lineage,
	disc map[string]time.Time,
	anns map[string]domain.Annotation,
	texts map[string]*lineageText,
	amdID map[string]string,
	variantSet map[string]bool,
	gt *GroundTruth,
) *domain.Document {
	doc := &domain.Document{
		Key:       p.Key,
		Vendor:    vendorOf(p),
		Label:     p.Label,
		Reference: p.Reference,
		Order:     g.orderOf(p),
		GenIndex:  p.GenIndex,
		Released:  p.Released,
		Revisions: append([]domain.Revision(nil), revisions...),
	}

	// Compute report dates and revisions.
	occs := make([]occurrence, 0, len(lins))
	for _, l := range lins {
		report := disc[l.Key]
		if first := revisions[0].Date; report.Before(first) {
			report = first
		}
		// Reporting lag: usually short, occasionally long (this yields
		// the backward-latent errata of Figure 5).
		lagMonths := g.rng.Intn(6)
		if g.rng.Float64() < 0.10 {
			lagMonths += 6 + g.rng.Intn(30)
		}
		report = report.AddDate(0, lagMonths, 0)
		if last := revisions[len(revisions)-1].Date; report.After(last) {
			report = last
		}
		occs = append(occs, occurrence{lin: l, report: report, rev: revisionFor(revisions, report)})
	}
	sort.SliceStable(occs, func(i, j int) bool {
		if occs[i].rev != occs[j].rev {
			return occs[i].rev < occs[j].rev
		}
		if !occs[i].report.Equal(occs[j].report) {
			return occs[i].report.Before(occs[j].report)
		}
		return occs[i].lin.Key < occs[j].lin.Key
	})

	// AMD entries are ordered by their global numeric identifier, which
	// correlates with (but does not equal) addition order.
	if doc.Vendor == domain.AMD {
		sort.SliceStable(occs, func(i, j int) bool {
			return numLess(amdID[occs[i].lin.Key], amdID[occs[j].lin.Key])
		})
	}

	for i, oc := range occs {
		seq := i + 1
		id := amdID[oc.lin.Key]
		if doc.Vendor == domain.Intel {
			id = fmt.Sprintf("%s%03d", p.Prefix, seq)
		}
		text := texts[oc.lin.Key]
		title := text.title
		// The title variant goes to the chronologically last occurrence
		// of the lineage.
		if variantSet[oc.lin.Key] && p.Key == oc.lin.Docs[len(oc.lin.Docs)-1] && text.variant != "" {
			title = text.variant
		}
		ann := anns[oc.lin.Key]
		e := &domain.Erratum{
			DocKey:        p.Key,
			ID:            id,
			Seq:           seq,
			Title:         title,
			Description:   text.description,
			Implication:   text.implication,
			AddedIn:       oc.rev,
			Key:           oc.lin.Key,
			Ann:           ann.Clone(),
			WorkaroundCat: g.sampleWorkaroundCat(doc.Vendor),
			Fix:           g.sampleFix(doc.Vendor, p.GenIndex),
		}
		// Workaround and status text follow the sampled categories.
		e.Workaround = g.pickString(workaroundTexts[e.WorkaroundCat.String()])
		e.Status = g.pickString(statusTexts[e.Fix.String()])
		doc.Errata = append(doc.Errata, e)
		if rev := doc.Revision(oc.rev); rev != nil {
			rev.Added = append(rev.Added, id)
		}
		if variantSet[oc.lin.Key] && title != text.title {
			// Record the confirmed pair: first occurrence vs variant.
			gt.ConfirmedPairs = append(gt.ConfirmedPairs, [2]string{
				oc.lin.Key, EntryRef(e),
			})
		}
	}
	return doc
}

func vendorOf(p DocProfile) domain.Vendor {
	if p.Intel {
		return domain.Intel
	}
	return domain.AMD
}

func (g *generator) orderOf(p DocProfile) int {
	list := g.spec.AMDDocs
	if p.Intel {
		list = g.spec.IntelDocs
	}
	for i := range list {
		if list[i].Key == p.Key {
			return i
		}
	}
	return -1
}

func numLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// revisionFor returns the number of the first revision whose date is not
// before the given date (clamped to the last revision).
func revisionFor(revisions []domain.Revision, date time.Time) int {
	for _, r := range revisions {
		if !r.Date.Before(date) {
			return r.Number
		}
	}
	return revisions[len(revisions)-1].Number
}

// sampleWorkaroundCat draws a workaround category per Figure 6.
func (g *generator) sampleWorkaroundCat(v domain.Vendor) domain.WorkaroundCategory {
	table := g.spec.WorkaroundWeightsIntel
	if v == domain.AMD {
		table = g.spec.WorkaroundWeightsAMD
	}
	id := g.pickWeighted(table, nil)
	cat, err := domain.ParseWorkaroundCategory(id)
	if err != nil {
		return domain.WorkaroundNone
	}
	return cat
}

// sampleFix draws a fix status per Figure 7; the Intel fixed fraction
// grows weakly with the generation index.
func (g *generator) sampleFix(v domain.Vendor, genIndex int) domain.FixStatus {
	mult := func(id string) float64 {
		if v == domain.Intel && id == "Fixed" {
			return 1.0 + float64(genIndex)*0.12
		}
		if v == domain.AMD && id == "Fixed" {
			return 0.7
		}
		return 1
	}
	id := g.pickWeighted(g.spec.FixWeights, mult)
	st, err := domain.ParseFixStatus(id)
	if err != nil {
		return domain.FixNone
	}
	return st
}

// injectIntraDocDuplicates duplicates reserved entries inside the chosen
// documents (11 pairs across 6 documents).
func (g *generator) injectIntraDocDuplicates(gt *GroundTruth, reserve map[string]int, anns map[string]domain.Annotation) {
	keys := make([]string, 0, len(reserve))
	for k := range reserve {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, dk := range keys {
		doc := gt.DB.Docs[dk]
		if doc == nil || len(doc.Errata) == 0 {
			continue
		}
		for i := 0; i < reserve[dk]; i++ {
			// Duplicate a mid-document entry; repeated entries in real
			// documents are typically far apart.
			src := doc.Errata[g.rng.Intn(len(doc.Errata)/2+1)]
			dup := src.Clone()
			dup.Seq = len(doc.Errata) + 1
			dup.ID = fmt.Sprintf("%s%03d", g.profiles[dk].Prefix, dup.Seq)
			dup.AddedIn = doc.Revisions[len(doc.Revisions)-1].Number
			if rev := doc.Revision(dup.AddedIn); rev != nil {
				rev.Added = append(rev.Added, dup.ID)
			}
			doc.Errata = append(doc.Errata, dup)
			gt.Inventory.IntraDocDuplicates = append(gt.Inventory.IntraDocDuplicates,
				[2]string{EntryRef(src), EntryRef(dup)})
		}
	}
}

// injectRevisionErrors plants the revision-note inconsistencies: 8
// errata across 3 documents are claimed by two revisions, and 12 errata
// across 2 documents vanish from the notes entirely.
func (g *generator) injectRevisionErrors(gt *GroundTruth) {
	doubleDocs := []string{"intel-02d", "intel-05m", "intel-07"}
	counts := []int{3, 3, 2}
	for i, dk := range doubleDocs {
		doc := gt.DB.Docs[dk]
		if doc == nil || len(doc.Errata) == 0 {
			continue
		}
		for j := 0; j < counts[i]; j++ {
			e := doc.Errata[g.rng.Intn(len(doc.Errata))]
			if e.AddedIn >= len(doc.Revisions) {
				e = doc.Errata[0]
			}
			// Claim the same erratum again in a later revision.
			later := doc.Revision(e.AddedIn + 1)
			if later == nil {
				later = doc.LatestRevision()
			}
			later.Added = append(later.Added, e.ID)
			gt.Inventory.DoubleAddedRevisions = append(gt.Inventory.DoubleAddedRevisions, EntryRef(e))
		}
	}

	missingDocs := []string{"intel-03d", "amd-15h-00"}
	counts = []int{7, 5}
	for i, dk := range missingDocs {
		doc := gt.DB.Docs[dk]
		if doc == nil || len(doc.Errata) == 0 {
			continue
		}
		for j := 0; j < counts[i]; j++ {
			e := doc.Errata[g.rng.Intn(len(doc.Errata))]
			removed := false
			for r := range doc.Revisions {
				added := doc.Revisions[r].Added[:0]
				for _, id := range doc.Revisions[r].Added {
					if id == e.ID {
						removed = true
						continue
					}
					added = append(added, id)
				}
				doc.Revisions[r].Added = added
			}
			if removed {
				e.AddedIn = 0
				gt.Inventory.MissingFromNotes = append(gt.Inventory.MissingFromNotes, EntryRef(e))
			} else {
				j-- // already stripped by a previous iteration; retry
			}
		}
	}
}

// injectReusedName makes one document reuse an erratum name for two
// different errata (the AAJ143 case).
func (g *generator) injectReusedName(gt *GroundTruth) {
	doc := gt.DB.Docs["intel-01d"]
	if doc == nil || len(doc.Errata) < 2 {
		return
	}
	a := doc.Errata[g.rng.Intn(len(doc.Errata)-1)]
	var b *domain.Erratum
	for _, e := range doc.Errata {
		if e.Key != a.Key {
			b = e
			break
		}
	}
	if b == nil {
		return
	}
	oldID := b.ID
	b.ID = a.ID
	// The revision notes now also refer to the reused name.
	for r := range doc.Revisions {
		for i, id := range doc.Revisions[r].Added {
			if id == oldID {
				doc.Revisions[r].Added[i] = a.ID
			}
		}
	}
	gt.Inventory.ReusedName = [2]string{EntryRef(a), EntryRef(b)}
}

// injectFieldErrors removes or duplicates fields on 7 errata across 4
// documents.
func (g *generator) injectFieldErrors(gt *GroundTruth) {
	plan := []struct {
		doc   string
		field string
		kind  string
	}{
		{"intel-04d", "Implication", "missing"},
		{"intel-04d", "Workaround", "missing"},
		{"intel-06", "Status", "missing"},
		{"intel-06", "Workaround", "duplicate"},
		{"amd-16h-00", "Implication", "duplicate"},
		{"amd-16h-00", "Implication", "missing"},
		{"intel-10", "Status", "duplicate"},
	}
	for _, p := range plan {
		doc := gt.DB.Docs[p.doc]
		if doc == nil || len(doc.Errata) == 0 {
			continue
		}
		e := doc.Errata[g.rng.Intn(len(doc.Errata))]
		if p.kind == "missing" {
			switch p.field {
			case "Implication":
				e.Implication = ""
			case "Workaround":
				e.Workaround = ""
				e.WorkaroundCat = domain.WorkaroundNone
			case "Status":
				e.Status = ""
				e.Fix = domain.FixNone
			}
		}
		gt.Inventory.FieldErrors = append(gt.Inventory.FieldErrors, FieldError{
			Ref: EntryRef(e), Field: p.field, Kind: p.kind,
		})
	}
}

// markSimulationOnly flags one Intel and five AMD lineages as only
// observable in simulation, appending the corresponding sentence to
// every occurrence.
func (g *generator) markSimulationOnly(gt *GroundTruth) {
	plan := []struct {
		doc string
		n   int
	}{
		{"intel-06", 1},
		{"amd-15h-00", 2}, {"amd-17h-00", 2}, {"amd-19h-00", 1},
	}
	marked := map[string]bool{}
	for _, p := range plan {
		doc := gt.DB.Docs[p.doc]
		if doc == nil || len(doc.Errata) == 0 {
			continue
		}
		placed := 0
		for attempts := 0; placed < p.n && attempts < 200; attempts++ {
			e := doc.Errata[g.rng.Intn(len(doc.Errata))]
			if marked[e.Key] {
				continue
			}
			marked[e.Key] = true
			placed++
			// Flag every occurrence of the lineage consistently.
			for _, other := range gt.DB.Errata() {
				if other.Key == e.Key {
					other.Ann.SimulationOnly = true
					other.Description += " " + simulationOnlySentence
				}
			}
		}
	}
}

// injectWrongMSRs plants erroneous MSR numbers in the descriptions of 3
// errata across 3 documents.
func (g *generator) injectWrongMSRs(gt *GroundTruth) {
	for _, dk := range []string{"intel-02m", "intel-08", "amd-17h-00"} {
		doc := gt.DB.Docs[dk]
		if doc == nil || len(doc.Errata) == 0 {
			continue
		}
		e := doc.Errata[g.rng.Intn(len(doc.Errata))]
		e.Description += " The erroneous value is latched in MSR 0xFFFF_FFFF."
		gt.Inventory.WrongMSRNumbers = append(gt.Inventory.WrongMSRNumbers, EntryRef(e))
	}
}
