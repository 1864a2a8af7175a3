package rememberr

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/heredity"
	"repro/internal/timeline"
	"repro/pkg/domain"
)

// Observation is one of the paper's thirteen numbered observations,
// re-evaluated on the built database.
type Observation struct {
	// ID is the paper's observation number ("O1".."O13").
	ID string
	// Statement is the paper's wording.
	Statement string
	// Holds reports whether the observation holds on this database.
	Holds bool
	// Evidence carries the measured numbers behind the verdict.
	Evidence string
}

// Observations re-evaluates O1-O13 on the database.
func (db *Database) Observations() []Observation {
	var out []Observation
	add := func(id, statement string, holds bool, format string, args ...interface{}) {
		out = append(out, Observation{
			ID: id, Statement: statement, Holds: holds,
			Evidence: fmt.Sprintf(format, args...),
		})
	}

	// O1: the number of reported errata does not significantly decrease
	// over time with new designs. Compare recent vs old Intel documents,
	// normalized per year of coverage.
	perYear := func(d *Document) float64 {
		last := d.LatestRevision()
		if last == nil {
			return float64(len(d.Errata))
		}
		years := last.Date.Sub(d.Released).Hours() / 24 / 365
		if years <= 0 {
			years = 1
		}
		return float64(len(d.Errata)) / years
	}
	var oldRate, newRate []float64
	for _, d := range db.core.VendorDocuments(Intel) {
		if d.GenIndex <= 4 {
			oldRate = append(oldRate, perYear(d))
		}
		if d.GenIndex >= 8 {
			newRate = append(newRate, perYear(d))
		}
	}
	add("O1", "The number of reported errata does not significantly decrease over time with new designs.",
		mean(newRate) > 0.5*mean(oldRate),
		"errata/year: old gens %.1f, recent gens %.1f", mean(oldRate), mean(newRate))

	// O2: cumulative curves are concave.
	series := timeline.CumulativeByDocument(db.core)
	concave, total := 0, 0
	for _, pts := range series {
		total++
		if timeline.Concavity(pts) >= 0.5 {
			concave++
		}
	}
	add("O2", "The increase in errata for a given design is usually concave.",
		concave*10 >= total*7, "%d/%d documents concave", concave, total)

	// O3: bugs are shared between generations, staying for many
	// generations.
	lins := heredity.LongestLineages(db.core, 1)
	maxSpan := 0
	if len(lins) > 0 {
		maxSpan = lins[0].GenSpan
	}
	m := heredity.SharedMatrix(db.core, Intel)
	sharedAny := 0
	for i := range m.Counts {
		for j := i + 1; j < len(m.Counts); j++ {
			sharedAny += m.Counts[i][j]
		}
	}
	add("O3", "Bugs are often shared between generations; shared bugs may stay for up to 11 generations.",
		maxSpan >= 10 && sharedAny > 500,
		"max generation span %d, %d shared (doc-pair) occurrences", maxSpan, sharedAny)

	// O4: most shared design flaws were known before the subsequent
	// generation's release.
	keys := heredity.SharedKeys(db.core, "intel-06", "intel-07", "intel-08", "intel-10")
	known := heredity.KnownBeforeNextRelease(db.core, keys, "intel-06", "intel-07")
	add("O4", "Most design flaws shared between generations were already known before releasing the subsequent generation.",
		known*2 > len(keys), "%d/%d known before the gen-7 release", known, len(keys))

	// O5: a substantial number of errata have no suggested workaround.
	w := analysis.Workarounds(db.core)
	noneI := frac(w[Intel][domain.WorkaroundNone], len(db.UniqueVendor(Intel)))
	noneA := frac(w[AMD][domain.WorkaroundNone], len(db.UniqueVendor(AMD)))
	add("O5", "A substantial number of errata do not have any suggested workaround.",
		noneI > 0.25 && noneA > 0.2,
		"no workaround: Intel %.1f%%, AMD %.1f%%", 100*noneI, 100*noneA)

	// O6: bugs are rarely fixed.
	fixes := analysis.Fixes(db.core)
	fixed, entries := 0, 0
	for _, f := range fixes {
		fixed += f.Fixed
		entries += f.Total()
	}
	add("O6", "Bugs are rarely fixed.", frac(fixed, entries) < 0.25,
		"fixed share %.1f%%", 100*frac(fixed, entries))

	// O7: most errata require MSR interaction/configuration combined
	// with throttling, power transitions or peripheral inputs.
	freq := analysis.FrequentCategories(db.core, Trigger)
	topOK := true
	for _, v := range domain.Vendors {
		top3 := map[string]bool{}
		for i, cc := range freq[v] {
			if i < 3 {
				top3[cc.Category] = true
			}
		}
		if !top3["Trg_CFG_wrg"] || (!top3["Trg_POW_tht"] && !top3["Trg_POW_pwc"]) {
			topOK = false
		}
	}
	add("O7", "Most errata require specific MSR interaction or configuration combined with throttling, power state transitions, or peripheral inputs.",
		topOK, "Trg_CFG_wrg and power triggers lead for both vendors")

	// O8: some abstract triggers correlate strongly, most do not.
	corr := analysis.TriggerCorrelation(db.core)
	zero, pairs := 0, 0
	for i := range corr.Counts {
		for j := i + 1; j < len(corr.Counts); j++ {
			pairs++
			if corr.Counts[i][j] <= 1 {
				zero++
			}
		}
	}
	strongest := corr.TopPairs(1)
	strongCount := 0
	if len(strongest) > 0 {
		strongCount = strongest[0].Count
	}
	add("O8", "Some abstract triggers tend to correlate strongly, while most do not.",
		strongCount >= 10 && zero*10 >= pairs*6,
		"strongest pair %d errata; %d/%d pairs near zero", strongCount, zero, pairs)

	// O9: all trigger classes are necessary to trigger all known bugs.
	rows := analysis.ClassesOverGenerations(db.core)
	classTotals := map[string]int{}
	for _, r := range rows {
		for cl, n := range r.Classes {
			classTotals[cl] += n
		}
	}
	allUsed := true
	for _, cl := range db.Scheme().ClassIDs(Trigger) {
		if classTotals[cl] == 0 {
			allUsed = false
		}
	}
	add("O9", "It is necessary to apply all trigger classes to trigger all known bugs.",
		allUsed, "every trigger class appears in the Intel corpus")

	// O10: trigger-class representation is very similar across vendors.
	rep := analysis.ClassRepresentation(db.core, Trigger)
	maxDelta := 0.0
	for i, cl := range db.Scheme().ClassIDs(Trigger) {
		if cl == "Trg_EXT" || cl == "Trg_FEA" {
			continue
		}
		d := math.Abs(rep[Intel][i].Share - rep[AMD][i].Share)
		if d > maxDelta {
			maxDelta = d
		}
	}
	add("O10", "The representation of trigger classes over the errata corpora is very similar for Intel and AMD.",
		maxDelta < 0.08, "max non-EXT/FEA class delta %.1f pp", 100*maxDelta)

	// O11: most errors occur in the VM-guest context.
	ctxFreq := analysis.FrequentCategories(db.core, Context)
	vmgTop := len(ctxFreq[Intel]) > 0 && ctxFreq[Intel][0].Category == "Ctx_PRV_vmg" &&
		len(ctxFreq[AMD]) > 0 && ctxFreq[AMD][0].Category == "Ctx_PRV_vmg"
	add("O11", "Most errors occur in the context of hardware support for virtual machine guests.",
		vmgTop, "Ctx_PRV_vmg leads for both vendors")

	// O12: corrupted registers and hangs are the most common effects.
	effFreq := analysis.FrequentCategories(db.core, Effect)
	effOK := true
	for _, v := range domain.Vendors {
		top3 := map[string]bool{}
		for i, cc := range effFreq[v] {
			if i < 3 {
				top3[cc.Category] = true
			}
		}
		if !top3["Eff_CRP_reg"] || !top3["Eff_HNG_hng"] {
			effOK = false
		}
	}
	add("O12", "Corrupted registers and hangs are the most common observable effects on Intel and AMD designs.",
		effOK, "Eff_CRP_reg and Eff_HNG_hng in the top-3 for both vendors")

	// O13: machine-check status registers most often indicate a bug.
	msrs := analysis.MSRFrequency(db.core)
	mcaTop := true
	for _, v := range domain.Vendors {
		if len(msrs[v]) == 0 || (msrs[v][0].MSR != "MCx_STATUS" && msrs[v][0].MSR != "MCx_ADDR") {
			mcaTop = false
		}
	}
	add("O13", "Among MSRs, machine check status registers most often indicate a bug's occurrence.",
		mcaTop, "MCx_STATUS/MCx_ADDR lead for both vendors")

	return out
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
