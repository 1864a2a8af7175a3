package rememberr

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/heredity"
	"repro/internal/report"
	"repro/internal/timeline"
	"repro/pkg/domain"
	corpusprofile "repro/plugins/corpusprofile/intelamd"
)

// Check is one qualitative shape assertion of an experiment: does the
// reproduced result agree with what the paper reports?
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Experiment is the result of regenerating one table or figure.
type Experiment struct {
	// ID identifies the experiment ("figure-10", "table-3", ...).
	ID string
	// Title describes the experiment.
	Title string
	// PaperClaim is the headline finding the paper reports.
	PaperClaim string
	// Text is the rendered table/figure.
	Text string
	// CSV is the raw data in CSV form.
	CSV string
	// SVG is a graphical rendering of the figure, where one exists.
	SVG string
	// Checks lists the shape assertions and their outcomes.
	Checks []Check
}

// Passed reports whether all checks hold.
func (e *Experiment) Passed() bool {
	for _, c := range e.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func check(name string, pass bool, format string, args ...interface{}) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}

// Experiments regenerates the paper's tables and figures from a built
// database.
type Experiments struct {
	db *Database
}

// NewExperiments creates an experiment runner.
func NewExperiments(db *Database) *Experiments { return &Experiments{db: db} }

// All runs every experiment in paper order.
func (x *Experiments) All() []*Experiment {
	return []*Experiment{
		x.Table1(), x.Table3(), x.Table4to6(), x.Table7(),
		x.CorpusTotals(),
		x.Figure2(), x.Figure3(), x.Figure4(), x.Figure5(),
		x.Figure6(), x.Figure7(), x.Figure8(), x.Figure9(),
		x.DecisionReduction(),
		x.Figure10(), x.Figure11(), x.Figure12(), x.Figure13(),
		x.Figure14(), x.Figure15(), x.Figure16(), x.Figure17(),
		x.Figure18(), x.Figure19(),
	}
}

// ByID runs one experiment by identifier.
func (x *Experiments) ByID(id string) (*Experiment, error) {
	for _, e := range x.All() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("rememberr: unknown experiment %q", id)
}

// IDs lists the experiment identifiers in paper order.
func (x *Experiments) IDs() []string {
	var out []string
	for _, e := range x.All() {
		out = append(out, e.ID)
	}
	return out
}

// ---------------------------------------------------------------------
// Tables

// Table1 renders example errata in the classic format (Tables I and II
// of the paper show the first Intel Core 12th-gen erratum and the most
// recent AMD Zen 3 erratum).
func (x *Experiments) Table1() *Experiment {
	ex := &Experiment{
		ID:         "table-1",
		Title:      "Example errata (classic format)",
		PaperClaim: "Errata carry title, description, implications, workaround and status fields.",
	}
	var b strings.Builder
	intel := x.db.Document("intel-12")
	amd := x.db.Document("amd-19h-00")
	renderClassic := func(d *Document, e *Erratum) {
		fmt.Fprintf(&b, "ID: %s (%s)\nTitle: %s\nDescription: %s\nImplications: %s\nWorkaround: %s\nStatus: %s\n\n",
			e.ID, d.Label, e.Title, e.Description, e.Implication, e.Workaround, e.Status)
	}
	var okIntel, okAMD bool
	if intel != nil && len(intel.Errata) > 0 {
		renderClassic(intel, intel.Errata[0])
		okIntel = true
	}
	if amd != nil && len(amd.Errata) > 0 {
		renderClassic(amd, amd.Errata[len(amd.Errata)-1])
		okAMD = true
	}
	ex.Text = b.String()
	ex.Checks = append(ex.Checks,
		check("intel-12 first erratum present", okIntel, "intel-12 available"),
		check("amd-19h last erratum present", okAMD, "amd-19h available"))
	return ex
}

// Table3 reproduces the inspected-document inventory.
func (x *Experiments) Table3() *Experiment {
	ex := &Experiment{
		ID:         "table-3",
		Title:      "Inspected errata documents",
		PaperClaim: "16 Intel Core documents and 12 AMD family documents.",
	}
	var rows [][]string
	nIntel, nAMD := 0, 0
	for _, d := range x.db.Documents() {
		rows = append(rows, []string{
			d.Vendor.String(), d.Label, d.Reference,
			d.Released.Format("2006-01"), fmt.Sprintf("%d", len(d.Errata)),
			fmt.Sprintf("%d", len(d.Revisions)),
		})
		if d.Vendor == Intel {
			nIntel++
		} else {
			nAMD++
		}
	}
	headers := []string{"Vendor", "Gen/Family", "Reference", "Released", "Errata", "Revisions"}
	ex.Text = report.Table(headers, rows)
	ex.CSV = report.CSV(headers, rows)
	ex.Checks = append(ex.Checks,
		check("16 Intel documents", nIntel == 16, "got %d", nIntel),
		check("12 AMD documents", nAMD == 12, "got %d", nAMD))
	return ex
}

// Table4to6 renders the full classification scheme.
func (x *Experiments) Table4to6() *Experiment {
	ex := &Experiment{
		ID:         "table-4-6",
		Title:      "Classification of triggers, contexts and observable effects",
		PaperClaim: "60 abstract categories: 34 triggers, 10 contexts, 16 effects.",
	}
	scheme := x.db.Scheme()
	var b strings.Builder
	for _, kind := range []Kind{Trigger, Context, Effect} {
		name := kind.Name()
		fmt.Fprintf(&b, "== %ss ==\n", strings.ToUpper(name[:1])+name[1:])
		for _, cl := range scheme.Classes(kind) {
			fmt.Fprintf(&b, "%s: %s\n", cl.ID, cl.Description)
			for _, catID := range scheme.CategoriesOf(cl.ID) {
				cat, _ := scheme.Category(catID)
				fmt.Fprintf(&b, "  %-16s %s\n", "_"+cat.Suffix, cat.Description)
			}
		}
		b.WriteString("\n")
	}
	ex.Text = b.String()
	ex.Checks = append(ex.Checks,
		check("60 categories", scheme.NumCategories(-1) == 60, "got %d", scheme.NumCategories(-1)),
		check("34/10/16 split",
			scheme.NumCategories(Trigger) == 34 && scheme.NumCategories(Context) == 10 && scheme.NumCategories(Effect) == 16,
			"got %d/%d/%d", scheme.NumCategories(Trigger), scheme.NumCategories(Context), scheme.NumCategories(Effect)))
	return ex
}

// Table7 renders an erratum in the proposed machine-readable format.
func (x *Experiments) Table7() *Experiment {
	ex := &Experiment{
		ID:         "table-7",
		Title:      "Proposed erratum format",
		PaperClaim: "Triggers, contexts and effects become explicit, redundancy is ruled out.",
	}
	var target *Erratum
	for _, e := range x.db.Unique() {
		if len(e.Ann.Triggers) >= 1 && len(e.Ann.Contexts) >= 1 && len(e.Ann.Effects) >= 1 {
			target = e
			break
		}
	}
	if target == nil {
		ex.Checks = append(ex.Checks, check("erratum with all three dimensions", false, "none found"))
		return ex
	}
	s := domain.Structure(target)
	ex.Text = s.Render()
	ex.Checks = append(ex.Checks,
		check("structured format valid", s.Validate(x.db.Scheme()) == nil, "%s", s.ID),
		check("unique key as ID", s.ID == target.Key, "id=%s", s.ID))
	return ex
}

// CorpusTotals checks the headline corpus numbers of Section IV-A.
func (x *Experiments) CorpusTotals() *Experiment {
	ex := &Experiment{
		ID:         "corpus-totals",
		Title:      "Corpus totals",
		PaperClaim: "2,563 errata: 2,057 Intel (743 unique), 506 AMD (385 unique); 1,128 unique in total.",
	}
	st := x.db.Stats()
	headers := []string{"Metric", "Measured", "Paper"}
	rows := [][]string{
		{"Total errata", fmt.Sprintf("%d", st.Total), "2563"},
		{"Intel errata", fmt.Sprintf("%d", st.IntelTotal), "2057"},
		{"AMD errata", fmt.Sprintf("%d", st.AMDTotal), "506"},
		{"Intel unique", fmt.Sprintf("%d", st.IntelUnique), "743"},
		{"AMD unique", fmt.Sprintf("%d", st.AMDUnique), "385"},
		{"Unique total", fmt.Sprintf("%d", st.Unique), "1128"},
	}
	ex.Text = report.Table(headers, rows)
	ex.CSV = report.CSV(headers, rows)
	ex.Checks = append(ex.Checks,
		check("totals match", st.Total == 2563 && st.IntelTotal == 2057 && st.AMDTotal == 506,
			"total=%d intel=%d amd=%d", st.Total, st.IntelTotal, st.AMDTotal),
		check("uniques match", st.Unique == 1128 && st.IntelUnique == 743 && st.AMDUnique == 385,
			"unique=%d intel=%d amd=%d", st.Unique, st.IntelUnique, st.AMDUnique))
	return ex
}

// DecisionReduction checks the software-assisted classification volume
// (Section V-A).
func (x *Experiments) DecisionReduction() *Experiment {
	ex := &Experiment{
		ID:         "decision-reduction",
		Title:      "Software-assisted classification decision reduction",
		PaperClaim: "1,128 x 60 = 67,680 decisions reduced to 2,064 per human by conservative regex filtering.",
	}
	rep := x.db.Report()
	if rep == nil || rep.Annotation == nil {
		ex.Checks = append(ex.Checks, check("build report available", false, "database was loaded, not built"))
		return ex
	}
	fs := rep.Annotation.FilterStats
	headers := []string{"Metric", "Measured", "Paper"}
	rows := [][]string{
		{"Raw decisions", fmt.Sprintf("%d", fs.RawDecisions), "67680"},
		{"Auto-included", fmt.Sprintf("%d", fs.AutoIncluded), "-"},
		{"Auto-excluded", fmt.Sprintf("%d", fs.AutoExcluded), "-"},
		{"Human decisions", fmt.Sprintf("%d", rep.Annotation.HumanDecisions), "2064"},
		{"Reduction factor", fmt.Sprintf("%.1f", fs.ReductionFactor()), "32.8"},
	}
	ex.Text = report.Table(headers, rows)
	ex.CSV = report.CSV(headers, rows)
	ex.Checks = append(ex.Checks,
		check("raw volume matches", fs.RawDecisions == 67680, "got %d", fs.RawDecisions),
		check("human volume same order as paper",
			rep.Annotation.HumanDecisions >= 800 && rep.Annotation.HumanDecisions <= 4500,
			"got %d (paper: 2064)", rep.Annotation.HumanDecisions),
		check("reduction >= 10x", fs.ReductionFactor() >= 10, "factor %.1f", fs.ReductionFactor()))
	return ex
}

// ---------------------------------------------------------------------
// Figures

// Figure2 reproduces the cumulative disclosure timelines.
func (x *Experiments) Figure2() *Experiment {
	ex := &Experiment{
		ID:         "figure-2",
		Title:      "Disclosure dates of Intel Core and AMD errata",
		PaperClaim: "Cumulative curves are concave; Intel updates far more frequently than AMD; errata keep appearing for new designs (O1, O2).",
	}
	series := timeline.CumulativeByDocument(x.db.core)
	svgSeries := map[string][]report.Point{}
	var b strings.Builder
	concaveDocs, totalDocs := 0, 0
	var intelRevs, amdRevs, intelDocs, amdDocs int
	for _, d := range x.db.Documents() {
		pts := series[d.Key]
		rpts := make([]report.Point, len(pts))
		for i, p := range pts {
			rpts[i] = report.Point{Date: p.Date, Value: p.Cumulative}
		}
		b.WriteString(report.YearlyBreakdown(fmt.Sprintf("%-5s %s", d.Vendor, d.Label), rpts))
		svgSeries[fmt.Sprintf("%s %s", d.Vendor, d.Label)] = rpts
		totalDocs++
		if timeline.Concavity(pts) >= 0.5 {
			concaveDocs++
		}
		if d.Vendor == Intel {
			intelRevs += len(d.Revisions)
			intelDocs++
		} else {
			amdRevs += len(d.Revisions)
			amdDocs++
		}
	}
	ex.Text = b.String()
	ex.SVG = report.SVGSeries("Cumulative errata disclosures per document", svgSeries, 900, 480)
	intelRate := float64(intelRevs) / float64(intelDocs)
	amdRate := float64(amdRevs) / float64(amdDocs)
	ex.Checks = append(ex.Checks,
		check("most curves concave (O2)", concaveDocs*10 >= totalDocs*7,
			"%d/%d concave", concaveDocs, totalDocs),
		check("Intel revises more frequently", intelRate > amdRate,
			"intel %.1f vs amd %.1f revisions/doc", intelRate, amdRate),
		check("every document discloses errata (O1)", totalDocs == 28, "%d documents", totalDocs))
	return ex
}

// Figure3 reproduces the heredity matrix.
func (x *Experiments) Figure3() *Experiment {
	ex := &Experiment{
		ID:         "figure-3",
		Title:      "Bug heredity across Intel generations",
		PaperClaim: "Desktop and mobile pairs share most bugs; 104 bugs shared by gens 6-10; 6 bugs from Core 1 to 10; one bug spans from Core 2 to the latest generation (O3).",
	}
	m := heredity.SharedMatrix(x.db.core, Intel)
	ex.Text = report.Heatmap("Shared unique errata between Intel documents", m.Labels, m.Counts)
	ex.SVG = report.SVGHeatmap("Shared unique errata between Intel documents", m.Labels, m.Counts, 0)

	idx := map[string]int{}
	for i, k := range m.Docs {
		idx[k] = i
	}
	dmShare := true
	for _, g := range []string{"01", "02", "03", "04", "05"} {
		i, j := idx["intel-"+g+"d"], idx["intel-"+g+"m"]
		shared := m.Counts[i][j]
		size := m.Counts[i][i]
		if shared*2 < size {
			dmShare = false
		}
	}
	shared6to10 := len(heredity.SharedKeys(x.db.core, "intel-06", "intel-07", "intel-08", "intel-10"))
	core1to10 := len(heredity.SharedKeys(x.db.core,
		"intel-01d", "intel-01m", "intel-02d", "intel-02m", "intel-03d", "intel-03m",
		"intel-04d", "intel-04m", "intel-05d", "intel-05m",
		"intel-06", "intel-07", "intel-08", "intel-10"))
	lins := heredity.LongestLineages(x.db.core, 1)
	maxSpan := 0
	if len(lins) > 0 {
		maxSpan = lins[0].GenSpan
	}
	// "We find fewer shared errata between AMD families, compared to
	// Intel Core generations": compare the shared fraction of entries.
	intelSharedFrac := sharedFraction(x.db, Intel)
	amdSharedFrac := sharedFraction(x.db, AMD)
	ex.Checks = append(ex.Checks,
		check("D/M pairs share majority", dmShare, "all generation pairs share >= 50%%"),
		check("AMD families share fewer errata than Intel generations",
			amdSharedFrac < intelSharedFrac,
			"shared fraction: AMD %.1f%% vs Intel %.1f%%", 100*amdSharedFrac, 100*intelSharedFrac),
		check("104 bugs shared by gens 6-10", shared6to10 == corpusprofile.SharedGens6To10, "got %d", shared6to10),
		check("6 bugs from Core 1 to Core 10", core1to10 == corpusprofile.LineagesCore1To10, "got %d", core1to10),
		check("longest lineage spans 10 generations", maxSpan >= 10, "span %d", maxSpan))
	return ex
}

// Figure4 reproduces the disclosure dates of the bugs shared by Intel
// generations 6 to 10.
func (x *Experiments) Figure4() *Experiment {
	ex := &Experiment{
		ID:         "figure-4",
		Title:      "Disclosure dates of bugs shared by Intel Core generations 6-10",
		PaperClaim: "Most shared design errors were known before the release of the subsequent generation (O4).",
	}
	docs := []string{"intel-06", "intel-07", "intel-08", "intel-10"}
	keys := heredity.SharedKeys(x.db.core, docs...)
	traces := heredity.DisclosureTraces(x.db.core, keys, docs...)
	series := map[string][]report.Point{}
	var b strings.Builder
	for _, tr := range traces {
		pts := make([]report.Point, len(tr.Dates))
		for i, d := range tr.Dates {
			pts[i] = report.Point{Date: d, Value: i + 1}
		}
		series["gen "+tr.Label] = pts
		b.WriteString(report.YearlyBreakdown("gen "+tr.Label, pts))
	}
	ex.Text = b.String() + report.Series("cumulative disclosures of shared bugs", series, 50)
	ex.SVG = report.SVGSeries("Disclosures of the bugs shared by Intel generations 6-10", series, 0, 0)

	// O4: count shared bugs known in gen 6 before gen 7's release.
	known := heredity.KnownBeforeNextRelease(x.db.core, keys, "intel-06", "intel-07")
	ex.Checks = append(ex.Checks,
		check("shared set has 104 bugs", len(keys) == corpusprofile.SharedGens6To10, "got %d", len(keys)),
		check("most known before next release (O4)", known*2 > len(keys),
			"%d/%d disclosed in gen 6 before gen 7's release", known, len(keys)))
	return ex
}

// Figure5 reproduces the forward-/backward-latent errata curves.
func (x *Experiments) Figure5() *Experiment {
	ex := &Experiment{
		ID:         "figure-5",
		Title:      "Forward-latent and backward-latent errata among Intel Core generations",
		PaperClaim: "Forward-latent errata always increase and dominate; backward-latent errata exist (salient around 2015).",
	}
	res := heredity.ForwardBackwardLatent(x.db.core, Intel)
	fwd := make([]report.Point, len(res.Forward))
	for i, p := range res.Forward {
		fwd[i] = report.Point{Date: p.Date, Value: p.Cumulative}
	}
	bwd := make([]report.Point, len(res.Backward))
	for i, p := range res.Backward {
		bwd[i] = report.Point{Date: p.Date, Value: p.Cumulative}
	}
	ex.Text = report.YearlyBreakdown("forward-latent", fwd) + report.YearlyBreakdown("backward-latent", bwd)
	ex.SVG = report.SVGSeries("Forward- and backward-latent errata",
		map[string][]report.Point{"forward-latent": fwd, "backward-latent": bwd}, 0, 0)
	ex.Checks = append(ex.Checks,
		check("forward-latent errata exist", res.ForwardTotal > 100, "got %d", res.ForwardTotal),
		check("backward-latent errata exist", res.BackwardTotal > 0, "got %d", res.BackwardTotal),
		check("forward dominates backward", res.ForwardTotal > res.BackwardTotal,
			"forward %d vs backward %d", res.ForwardTotal, res.BackwardTotal))
	return ex
}

// Figure6 reproduces the workaround breakdown.
func (x *Experiments) Figure6() *Experiment {
	ex := &Experiment{
		ID:         "figure-6",
		Title:      "Suggested workarounds by category",
		PaperClaim: "35.9% (Intel) and 28.9% (AMD) of unique errata have no suggested workaround (O5).",
	}
	w := analysis.Workarounds(x.db.core)
	var b strings.Builder
	var svgBars []report.Bar
	noneFrac := map[Vendor]float64{}
	for _, v := range domain.Vendors {
		var bars []report.Bar
		total := 0
		for _, cat := range domain.WorkaroundCategories {
			total += w[v][cat]
		}
		for _, cat := range domain.WorkaroundCategories {
			n := w[v][cat]
			bars = append(bars, report.Bar{
				Label: cat.String(), Value: float64(n),
				Note: fmt.Sprintf("(%.1f%%)", 100*float64(n)/float64(total)),
			})
		}
		noneFrac[v] = float64(w[v][domain.WorkaroundNone]) / float64(total)
		b.WriteString(report.BarChart(v.String(), bars, 40))
		b.WriteString("\n")
		for _, bar := range bars {
			bar.Label = v.String() + " / " + bar.Label
			svgBars = append(svgBars, bar)
		}
	}
	ex.Text = b.String()
	ex.SVG = report.SVGBarChart("Suggested workarounds by category", svgBars, 0)
	ex.Checks = append(ex.Checks,
		check("Intel None ~35.9%", math.Abs(noneFrac[Intel]-corpusprofile.NoWorkaroundFractionIntel) < 0.06,
			"got %.1f%%", 100*noneFrac[Intel]),
		check("AMD None ~28.9%", math.Abs(noneFrac[AMD]-corpusprofile.NoWorkaroundFractionAMD) < 0.06,
			"got %.1f%%", 100*noneFrac[AMD]))
	return ex
}

// Figure7 reproduces the fixed-vs-unfixed proportions.
func (x *Experiments) Figure7() *Experiment {
	ex := &Experiment{
		ID:         "figure-7",
		Title:      "Proportion of fixed vs unfixed bugs",
		PaperClaim: "The vast majority of bugs are never fixed; Intel shows a weak recent trend toward fixing (O6).",
	}
	fixes := analysis.Fixes(x.db.core)
	headers := []string{"Document", "Fixed", "Planned", "Unfixed", "FixedShare"}
	var rows [][]string
	majorityUnfixed := true
	var earlyShare, lateShare []float64
	for _, f := range fixes {
		share := float64(f.Fixed) / float64(f.Total())
		rows = append(rows, []string{
			f.DocKey, fmt.Sprintf("%d", f.Fixed), fmt.Sprintf("%d", f.Planned),
			fmt.Sprintf("%d", f.Unfixed), fmt.Sprintf("%.1f%%", 100*share),
		})
		if f.Unfixed*2 < f.Total() {
			majorityUnfixed = false
		}
		if f.Vendor == Intel {
			d := x.db.Document(f.DocKey)
			if d.GenIndex <= 5 {
				earlyShare = append(earlyShare, share)
			} else if d.GenIndex >= 9 {
				lateShare = append(lateShare, share)
			}
		}
	}
	ex.Text = report.Table(headers, rows)
	ex.CSV = report.CSV(headers, rows)
	var fixBars []report.Bar
	for _, f := range fixes {
		fixBars = append(fixBars, report.Bar{
			Label: f.DocKey, Value: 100 * float64(f.Fixed) / float64(f.Total()),
		})
	}
	ex.SVG = report.SVGBarChart("Fixed share per document (%)", fixBars, 0)
	trendUp := mean(lateShare) > mean(earlyShare)
	ex.Checks = append(ex.Checks,
		check("majority unfixed everywhere (O6)", majorityUnfixed, "all documents majority-unfixed"),
		check("weak Intel trend toward fixing", trendUp,
			"early gens %.1f%% vs late gens %.1f%%", 100*mean(earlyShare), 100*mean(lateShare)))
	return ex
}

// sharedFraction is the fraction of a vendor's unique errata occurring
// in more than one document.
func sharedFraction(db *Database, v Vendor) float64 {
	occ := db.core.Occurrences(v)
	if len(occ) == 0 {
		return 0
	}
	shared := 0
	for _, entries := range occ {
		docs := map[string]bool{}
		for _, e := range entries {
			docs[e.DocKey] = true
		}
		if len(docs) > 1 {
			shared++
		}
	}
	return float64(shared) / float64(len(occ))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Figure8 reproduces the per-step classification volumes.
func (x *Experiments) Figure8() *Experiment {
	ex := &Experiment{
		ID:         "figure-8",
		Title:      "Number of errata per classification discussion step",
		PaperClaim: "The classification proceeded in seven successive steps, cumulatively covering all unique errata.",
	}
	rep := x.db.Report()
	if rep == nil || rep.Annotation == nil {
		ex.Checks = append(ex.Checks, check("build report available", false, "database was loaded, not built"))
		return ex
	}
	var bars []report.Bar
	cum := 0
	for _, s := range rep.Annotation.Steps {
		cum = s.CumulativeErrata
		bars = append(bars, report.Bar{
			Label: fmt.Sprintf("step %d", s.Step),
			Value: float64(s.CumulativeErrata),
			Note:  fmt.Sprintf("(+%d)", s.Errata),
		})
	}
	ex.Text = report.BarChart("cumulative errata per discussion step", bars, 40)
	ex.SVG = report.SVGBarChart("Errata per classification discussion step", bars, 0)
	ex.Checks = append(ex.Checks,
		check("7 steps", len(rep.Annotation.Steps) == 7, "got %d", len(rep.Annotation.Steps)),
		check("all unique errata covered", cum == x.db.Stats().Unique, "cumulative %d", cum))
	return ex
}

// Figure9 reproduces the inter-annotator agreement curve.
func (x *Experiments) Figure9() *Experiment {
	ex := &Experiment{
		ID:         "figure-9",
		Title:      "Inter-annotator agreement before discussion",
		PaperClaim: "Agreement is generally above 80% and improves across the discussion steps.",
	}
	rep := x.db.Report()
	if rep == nil || rep.Annotation == nil {
		ex.Checks = append(ex.Checks, check("build report available", false, "database was loaded, not built"))
		return ex
	}
	var bars []report.Bar
	minAgr, first, last := 101.0, -1.0, -1.0
	for _, s := range rep.Annotation.Steps {
		bars = append(bars, report.Bar{
			Label: fmt.Sprintf("step %d", s.Step),
			Value: s.AgreementPct,
			Note:  fmt.Sprintf("(%d decisions, kappa %.2f)", s.Decisions, s.Kappa),
		})
		if s.Decisions > 20 {
			if s.AgreementPct < minAgr {
				minAgr = s.AgreementPct
			}
			if first < 0 {
				first = s.AgreementPct
			}
			last = s.AgreementPct
		}
	}
	ex.Text = report.BarChart("agreement percentage per step", bars, 40)
	ex.SVG = report.SVGBarChart("Inter-annotator agreement per step (%)", bars, 0)
	ex.Checks = append(ex.Checks,
		check("agreement generally above 80%", minAgr >= 75, "minimum %.1f%%", minAgr),
		check("agreement improves", last >= first-2, "first %.1f%% -> last %.1f%%", first, last))
	return ex
}

// Figure10 reproduces the most frequent triggers.
func (x *Experiments) Figure10() *Experiment {
	ex := &Experiment{
		ID:         "figure-10",
		Title:      "Most frequent triggers of all errata",
		PaperClaim: "Configuration-register interactions, power throttling and power-state transitions lead (O7).",
	}
	freq := analysis.FrequentCategories(x.db.core, Trigger)
	var b strings.Builder
	var svgBars []report.Bar
	topSets := map[Vendor][]string{}
	for _, v := range domain.Vendors {
		var bars []report.Bar
		for i, cc := range freq[v] {
			if i >= 12 {
				break
			}
			bars = append(bars, report.Bar{Label: cc.Category, Value: float64(cc.Count)})
			topSets[v] = append(topSets[v], cc.Category)
		}
		b.WriteString(report.BarChart(v.String(), bars, 40))
		b.WriteString("\n")
		for _, bar := range bars {
			bar.Label = v.String() + " / " + bar.Label
			svgBars = append(svgBars, bar)
		}
	}
	ex.Text = b.String()
	ex.SVG = report.SVGBarChart("Most frequent triggers", svgBars, 0)
	inTop := func(v Vendor, cat string, n int) bool {
		tops := topSets[v]
		if len(tops) > n {
			tops = tops[:n]
		}
		for _, c := range tops {
			if c == cat {
				return true
			}
		}
		return false
	}
	ex.Checks = append(ex.Checks,
		check("Trg_CFG_wrg in top-3 for both vendors",
			inTop(Intel, "Trg_CFG_wrg", 3) && inTop(AMD, "Trg_CFG_wrg", 3),
			"top Intel: %v", topSets[Intel][:3]),
		check("power triggers in top-5 (O7)",
			(inTop(Intel, "Trg_POW_tht", 5) || inTop(Intel, "Trg_POW_pwc", 5)) &&
				(inTop(AMD, "Trg_POW_tht", 5) || inTop(AMD, "Trg_POW_pwc", 5)),
			"power triggers rank high"))
	return ex
}

// Figure11 reproduces the trigger-count histogram.
func (x *Experiments) Figure11() *Experiment {
	ex := &Experiment{
		ID:         "figure-11",
		Title:      "Number of errata by the number of triggers",
		PaperClaim: "14.4% of errata lack clear triggers and are excluded; 49% of the rest require at least two combined triggers.",
	}
	tc := analysis.TriggerCountHistogram(x.db.core)
	var bars []report.Bar
	counts := make([]int, 0, len(tc.PerCount))
	for n := range tc.PerCount {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	for _, n := range counts {
		bars = append(bars, report.Bar{Label: fmt.Sprintf("%d triggers", n), Value: float64(tc.PerCount[n])})
	}
	ex.SVG = report.SVGBarChart("Errata by number of required triggers", bars, 0)
	ex.Text = report.BarChart("errata by number of required triggers", bars, 40) +
		fmt.Sprintf("excluded (trivial/no trigger): %d (%.1f%%)\nat least two triggers: %.1f%%\ncomplex-conditions mentions: %d\n",
			tc.Excluded, 100*tc.ExcludedFraction(), 100*tc.AtLeastTwoFraction(), tc.Complex)
	ex.Checks = append(ex.Checks,
		check("~14.4% excluded", math.Abs(tc.ExcludedFraction()-corpusprofile.TrivialTriggerFraction) < 0.04,
			"got %.1f%%", 100*tc.ExcludedFraction()),
		check("~49% need at least two triggers", math.Abs(tc.AtLeastTwoFraction()-0.49) < 0.07,
			"got %.1f%%", 100*tc.AtLeastTwoFraction()))
	return ex
}

// Figure12 reproduces the pairwise trigger correlation.
func (x *Experiments) Figure12() *Experiment {
	ex := &Experiment{
		ID:         "figure-12",
		Title:      "Pairwise cross-correlation between abstract triggers",
		PaperClaim: "Some triggers correlate strongly (debug features with VM transitions; DRAM/PCIe with power changes) while most do not (O8).",
	}
	c := analysis.TriggerCorrelation(x.db.core)
	short := make([]string, len(c.Categories))
	for i, cat := range c.Categories {
		short[i] = strings.TrimPrefix(cat, "Trg_")
	}
	ex.Text = report.Heatmap("errata requiring at least both triggers", short, c.Counts)
	ex.SVG = report.SVGHeatmap("Pairwise trigger cross-correlation", short, c.Counts, 14)
	top := c.TopPairs(10)
	var b strings.Builder
	b.WriteString("\nStrongest interactions:\n")
	dbgVmt := 0
	for _, p := range top {
		fmt.Fprintf(&b, "  %-14s x %-14s %d\n", p.A, p.B, p.Count)
	}
	dbgVmt = c.Pair("Trg_FEA_dbg", "Trg_PRV_vmt")
	ex.Text += b.String()

	// Sparsity: most off-diagonal pairs are (near) zero.
	zeroPairs, totalPairs := 0, 0
	for i := range c.Counts {
		for j := i + 1; j < len(c.Counts); j++ {
			totalPairs++
			if c.Counts[i][j] <= 1 {
				zeroPairs++
			}
		}
	}
	inTop := false
	for _, p := range top[:min(10, len(top))] {
		if (p.A == "Trg_FEA_dbg" && p.B == "Trg_PRV_vmt") || (p.A == "Trg_PRV_vmt" && p.B == "Trg_FEA_dbg") {
			inTop = true
		}
	}
	ex.Checks = append(ex.Checks,
		check("debug x VM-transition salient", inTop && dbgVmt >= 8,
			"count %d, in top-10: %v", dbgVmt, inTop),
		check("most pairs do not interact (O8)", zeroPairs*10 >= totalPairs*6,
			"%d/%d pairs with <= 1 shared erratum", zeroPairs, totalPairs),
		check("power interacts with DRAM/PCIe",
			c.Pair("Trg_EXT_ram", "Trg_POW_pwc") >= 3 && c.Pair("Trg_EXT_pci", "Trg_POW_pwc") >= 3,
			"ram x pwc = %d, pci x pwc = %d",
			c.Pair("Trg_EXT_ram", "Trg_POW_pwc"), c.Pair("Trg_EXT_pci", "Trg_POW_pwc")))
	return ex
}

// Figure13 reproduces the trigger classes over Intel generations.
func (x *Experiments) Figure13() *Experiment {
	ex := &Experiment{
		ID:         "figure-13",
		Title:      "Trigger classes over Intel Core generations",
		PaperClaim: "Memory-boundary triggers are absent from the two latest generations; feature and external triggers dominate; all classes are needed to cover all known bugs (O9).",
	}
	rows := analysis.ClassesOverGenerations(x.db.core)
	classes := x.db.Scheme().ClassIDs(Trigger)
	headers := append([]string{"Document"}, classes...)
	var tbl [][]string
	mbrLate, mbrEarly := 0, 0
	for _, r := range rows {
		row := []string{r.DocKey}
		for _, cl := range classes {
			row = append(row, fmt.Sprintf("%d", r.Classes[cl]))
		}
		tbl = append(tbl, row)
		if r.GenIndex >= 11 {
			mbrLate += r.Classes["Trg_MBR"]
		} else {
			mbrEarly += r.Classes["Trg_MBR"]
		}
	}
	ex.Text = report.Table(headers, tbl)
	ex.CSV = report.CSV(headers, tbl)

	// O9: before the two latest generations, every class appears.
	allClassesEarly := true
	classTotals := map[string]int{}
	for _, r := range rows {
		if r.GenIndex < 11 {
			for cl, n := range r.Classes {
				classTotals[cl] += n
			}
		}
	}
	for _, cl := range classes {
		if classTotals[cl] == 0 {
			allClassesEarly = false
		}
	}
	ex.Checks = append(ex.Checks,
		check("MBR absent in the two latest generations", mbrLate == 0, "late MBR count %d", mbrLate),
		check("MBR present earlier", mbrEarly > 0, "early MBR count %d", mbrEarly),
		check("all trigger classes necessary (O9)", allClassesEarly, "every class appears before gen 11"))
	return ex
}

// Figure14 reproduces the relative trigger-class representation.
func (x *Experiments) Figure14() *Experiment {
	ex := &Experiment{
		ID:         "figure-14",
		Title:      "Relative representation of trigger classes between Intel and AMD",
		PaperClaim: "Class representation is highly similar across vendors; only external-stimuli and feature classes differ notably (O10).",
	}
	rep := analysis.ClassRepresentation(x.db.core, Trigger)
	headers := []string{"Class", "Intel", "AMD", "Delta"}
	var rows [][]string
	maxOtherDelta := 0.0
	for i, cl := range x.db.Scheme().ClassIDs(Trigger) {
		is := rep[Intel][i].Share
		as := rep[AMD][i].Share
		delta := math.Abs(is - as)
		rows = append(rows, []string{
			cl, fmt.Sprintf("%.1f%%", 100*is), fmt.Sprintf("%.1f%%", 100*as),
			fmt.Sprintf("%.1f", 100*delta),
		})
		if cl != "Trg_EXT" && cl != "Trg_FEA" && delta > maxOtherDelta {
			maxOtherDelta = delta
		}
	}
	ex.Text = report.Table(headers, rows)
	ex.CSV = report.CSV(headers, rows)
	var shareBars []report.Bar
	for i, cl := range x.db.Scheme().ClassIDs(Trigger) {
		shareBars = append(shareBars,
			report.Bar{Label: "Intel / " + cl, Value: 100 * rep[Intel][i].Share},
			report.Bar{Label: "AMD / " + cl, Value: 100 * rep[AMD][i].Share})
	}
	ex.SVG = report.SVGBarChart("Trigger-class representation (share %)", shareBars, 0)
	ex.Checks = append(ex.Checks,
		check("non-EXT/FEA classes similar (O10)", maxOtherDelta < 0.08,
			"max delta %.1f pp", 100*maxOtherDelta))
	return ex
}

// Figure15 reproduces the external-stimuli trigger breakdown.
func (x *Experiments) Figure15() *Experiment {
	ex := &Experiment{
		ID:         "figure-15",
		Title:      "Triggers related to external stimuli between Intel and AMD",
		PaperClaim: "External-stimuli triggers differ per vendor (e.g. AMD HyperTransport/IOMMU vs Intel USB).",
	}
	br := analysis.ClassBreakdown(x.db.core, "Trg_EXT")
	ex.Text = renderBreakdown(br)
	ex.SVG = breakdownSVG("External-stimuli triggers (share %)", br)
	busIntel, busAMD := shareOf(br, Intel, "Trg_EXT_bus"), shareOf(br, AMD, "Trg_EXT_bus")
	iomIntel, iomAMD := shareOf(br, Intel, "Trg_EXT_iom"), shareOf(br, AMD, "Trg_EXT_iom")
	ex.Checks = append(ex.Checks,
		check("AMD over-represents system-bus triggers", busAMD > busIntel,
			"bus: AMD %.1f%% vs Intel %.1f%%", 100*busAMD, 100*busIntel),
		check("AMD over-represents IOMMU triggers", iomAMD > iomIntel,
			"iommu: AMD %.1f%% vs Intel %.1f%%", 100*iomAMD, 100*iomIntel))
	return ex
}

// Figure16 reproduces the feature trigger breakdown.
func (x *Experiments) Figure16() *Experiment {
	ex := &Experiment{
		ID:         "figure-16",
		Title:      "Triggers related to specific features between Intel and AMD",
		PaperClaim: "Intel over-represents custom-feature and tracing triggers compared to AMD.",
	}
	br := analysis.ClassBreakdown(x.db.core, "Trg_FEA")
	ex.Text = renderBreakdown(br)
	ex.SVG = breakdownSVG("Feature triggers (share %)", br)
	cusIntel, cusAMD := shareOf(br, Intel, "Trg_FEA_cus"), shareOf(br, AMD, "Trg_FEA_cus")
	traIntel, traAMD := shareOf(br, Intel, "Trg_FEA_tra"), shareOf(br, AMD, "Trg_FEA_tra")
	ex.Checks = append(ex.Checks,
		check("Intel over-represents custom features", cusIntel > cusAMD,
			"cus: Intel %.1f%% vs AMD %.1f%%", 100*cusIntel, 100*cusAMD),
		check("Intel over-represents tracing features", traIntel > traAMD,
			"tra: Intel %.1f%% vs AMD %.1f%%", 100*traIntel, 100*traAMD))
	return ex
}

func renderBreakdown(br map[Vendor][]analysis.CategoryShare) string {
	var b strings.Builder
	for _, v := range domain.Vendors {
		var bars []report.Bar
		for _, s := range br[v] {
			bars = append(bars, report.Bar{
				Label: s.Category, Value: 100 * s.Share,
				Note: fmt.Sprintf("(%d)", s.Count),
			})
		}
		b.WriteString(report.BarChart(v.String()+" (share %)", bars, 40))
		b.WriteString("\n")
	}
	return b.String()
}

func breakdownSVG(title string, br map[Vendor][]analysis.CategoryShare) string {
	var bars []report.Bar
	for _, v := range domain.Vendors {
		for _, s := range br[v] {
			bars = append(bars, report.Bar{
				Label: v.String() + " / " + s.Category,
				Value: 100 * s.Share,
				Note:  fmt.Sprintf("(%d)", s.Count),
			})
		}
	}
	return report.SVGBarChart(title, bars, 0)
}

func shareOf(br map[Vendor][]analysis.CategoryShare, v Vendor, cat string) float64 {
	for _, s := range br[v] {
		if s.Category == cat {
			return s.Share
		}
	}
	return 0
}

// Figure17 reproduces the most frequent contexts.
func (x *Experiments) Figure17() *Experiment {
	ex := &Experiment{
		ID:         "figure-17",
		Title:      "Most frequent contexts of all errata",
		PaperClaim: "Running as a virtual machine guest is the most bug-prone context (O11).",
	}
	freq := analysis.FrequentCategories(x.db.core, Context)
	var b strings.Builder
	var svgBars []report.Bar
	topIsVMG := true
	for _, v := range domain.Vendors {
		var bars []report.Bar
		for _, cc := range freq[v] {
			bars = append(bars, report.Bar{Label: cc.Category, Value: float64(cc.Count)})
			svgBars = append(svgBars, report.Bar{Label: v.String() + " / " + cc.Category, Value: float64(cc.Count)})
		}
		if len(freq[v]) == 0 || freq[v][0].Category != "Ctx_PRV_vmg" {
			topIsVMG = false
		}
		b.WriteString(report.BarChart(v.String(), bars, 40))
		b.WriteString("\n")
	}
	ex.Text = b.String()
	ex.SVG = report.SVGBarChart("Most frequent contexts", svgBars, 0)
	ex.Checks = append(ex.Checks,
		check("VM guest is the top context (O11)", topIsVMG, "both vendors lead with Ctx_PRV_vmg"))
	return ex
}

// Figure18 reproduces the most frequent effects.
func (x *Experiments) Figure18() *Experiment {
	ex := &Experiment{
		ID:         "figure-18",
		Title:      "Most frequent effects for all errata",
		PaperClaim: "Corrupted registers, hangs and unpredictable behavior are the most common observable effects (O12).",
	}
	freq := analysis.FrequentCategories(x.db.core, Effect)
	var b strings.Builder
	var svgBars []report.Bar
	topOK := true
	for _, v := range domain.Vendors {
		var bars []report.Bar
		for i, cc := range freq[v] {
			if i >= 10 {
				break
			}
			bars = append(bars, report.Bar{Label: cc.Category, Value: float64(cc.Count)})
			svgBars = append(svgBars, report.Bar{Label: v.String() + " / " + cc.Category, Value: float64(cc.Count)})
		}
		top3 := map[string]bool{}
		for i, cc := range freq[v] {
			if i < 3 {
				top3[cc.Category] = true
			}
		}
		if !top3["Eff_CRP_reg"] || !top3["Eff_HNG_hng"] || !top3["Eff_HNG_unp"] {
			topOK = false
		}
		b.WriteString(report.BarChart(v.String(), bars, 40))
		b.WriteString("\n")
	}
	ex.Text = b.String()
	ex.SVG = report.SVGBarChart("Most frequent effects", svgBars, 0)
	ex.Checks = append(ex.Checks,
		check("reg/hang/unpredictable lead (O12)", topOK,
			"top-3 effects are CRP_reg, HNG_hng, HNG_unp for both vendors"))
	return ex
}

// Figure19 reproduces the MSR observation-point frequencies.
func (x *Experiments) Figure19() *Experiment {
	ex := &Experiment{
		ID:         "figure-19",
		Title:      "Most frequent MSRs containing observable effects",
		PaperClaim: "Machine-check status registers witness bugs most often (7.1-8.5% of unique errata), followed by IBS registers and performance counters (O13).",
	}
	freq := analysis.MSRFrequency(x.db.core)
	var b strings.Builder
	var svgBars []report.Bar
	mcaTop := true
	var mcaShares []float64
	for _, v := range domain.Vendors {
		var bars []report.Bar
		for i, mc := range freq[v] {
			if i >= 8 {
				break
			}
			bars = append(bars, report.Bar{
				Label: mc.MSR, Value: 100 * mc.Share,
				Note: fmt.Sprintf("(%d)", mc.Count),
			})
			svgBars = append(svgBars, report.Bar{
				Label: v.String() + " / " + mc.MSR, Value: 100 * mc.Share,
			})
		}
		if len(freq[v]) == 0 || (freq[v][0].MSR != "MCx_STATUS" && freq[v][0].MSR != "MCx_ADDR") {
			mcaTop = false
		}
		for _, mc := range freq[v] {
			if mc.MSR == "MCx_STATUS" {
				mcaShares = append(mcaShares, mc.Share)
			}
		}
		b.WriteString(report.BarChart(v.String()+" (% of unique errata)", bars, 40))
		b.WriteString("\n")
	}
	ex.Text = b.String()
	ex.SVG = report.SVGBarChart("MSRs witnessing bugs (% of unique errata)", svgBars, 0)
	inRange := len(mcaShares) == 2
	for _, s := range mcaShares {
		if s < 0.04 || s > 0.15 {
			inRange = false
		}
	}
	ex.Checks = append(ex.Checks,
		check("machine-check registers lead (O13)", mcaTop, "MCx_STATUS/MCx_ADDR on top"),
		check("MCx_STATUS share near the paper's 7.1-8.5% band", inRange, "shares %v", mcaShares))
	return ex
}
