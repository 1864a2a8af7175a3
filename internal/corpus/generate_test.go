package corpus

import (
	"strings"
	"testing"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
	intelamd "repro/plugins/corpusprofile/intelamd"
)

// The generator is deterministic and calibrated; generate once per test
// binary run.
var testGT = mustGenerate()

func mustGenerate() *GroundTruth {
	gt, err := Generate(1)
	if err != nil {
		panic(err)
	}
	return gt
}

func TestProfileSums(t *testing.T) {
	sum := 0
	for _, p := range IntelProfiles {
		sum += p.Count
	}
	if sum != TargetIntelTotal {
		t.Errorf("Intel profile counts sum to %d, want %d", sum, TargetIntelTotal)
	}
	sum = 0
	for _, p := range AMDProfiles {
		sum += p.Count
	}
	if sum != TargetAMDTotal {
		t.Errorf("AMD profile counts sum to %d, want %d", sum, TargetAMDTotal)
	}
	if len(IntelProfiles) != 16 || len(AMDProfiles) != 12 {
		t.Errorf("document counts = (%d,%d), want (16,12) as in Table III",
			len(IntelProfiles), len(AMDProfiles))
	}
}

func TestPlanIntel(t *testing.T) {
	lins, err := planIntel(intelamd.Profile{}.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lins) != TargetIntelUnique {
		t.Fatalf("Intel lineages = %d, want %d", len(lins), TargetIntelUnique)
	}
	appearances := 0
	specials := map[string]int{}
	shared6to10 := 0
	for i := range lins {
		appearances += lins[i].Span()
		specials[lins[i].Special]++
		if lins[i].Contains("intel-06") && lins[i].Contains("intel-07") &&
			lins[i].Contains("intel-08") && lins[i].Contains("intel-10") {
			shared6to10++
		}
	}
	if appearances != TargetIntelTotal {
		t.Errorf("Intel appearances = %d, want %d", appearances, TargetIntelTotal)
	}
	if specials["longest"] != 1 || specials["core1to10"] != LineagesCore1To10 {
		t.Errorf("special lineage counts = %v", specials)
	}
	if shared6to10 != SharedGens6To10 {
		t.Errorf("lineages shared by gens 6-10 = %d, want %d", shared6to10, SharedGens6To10)
	}
}

func TestPlanAMD(t *testing.T) {
	lins, err := planAMD(intelamd.Profile{}.Spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lins) != TargetAMDUnique {
		t.Fatalf("AMD lineages = %d, want %d", len(lins), TargetAMDUnique)
	}
	appearances := 0
	for i := range lins {
		appearances += lins[i].Span()
	}
	if appearances != TargetAMDTotal {
		t.Errorf("AMD appearances = %d, want %d", appearances, TargetAMDTotal)
	}
}

func TestGeneratedTotals(t *testing.T) {
	stats := testGT.DB.ComputeStats()
	if stats.IntelTotal != TargetIntelTotal {
		t.Errorf("Intel total = %d, want %d", stats.IntelTotal, TargetIntelTotal)
	}
	if stats.AMDTotal != TargetAMDTotal {
		t.Errorf("AMD total = %d, want %d", stats.AMDTotal, TargetAMDTotal)
	}
	if stats.Total != TargetTotal {
		t.Errorf("total = %d, want %d", stats.Total, TargetTotal)
	}
	if stats.IntelUnique != TargetIntelUnique {
		t.Errorf("Intel unique = %d, want %d", stats.IntelUnique, TargetIntelUnique)
	}
	if stats.AMDUnique != TargetAMDUnique {
		t.Errorf("AMD unique = %d, want %d", stats.AMDUnique, TargetAMDUnique)
	}
	if stats.Documents != 28 {
		t.Errorf("documents = %d, want 28", stats.Documents)
	}
}

func TestGeneratedDeterminism(t *testing.T) {
	gt2, err := Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	docs1, docs2 := testGT.DB.Documents(), gt2.DB.Documents()
	if len(docs1) != len(docs2) {
		t.Fatal("document count differs across runs")
	}
	for i := range docs1 {
		d1, d2 := docs1[i], docs2[i]
		if d1.Key != d2.Key || len(d1.Errata) != len(d2.Errata) {
			t.Fatalf("document %s differs structurally", d1.Key)
		}
		for j := range d1.Errata {
			e1, e2 := d1.Errata[j], d2.Errata[j]
			if e1.ID != e2.ID || e1.Title != e2.Title || e1.Description != e2.Description ||
				e1.Key != e2.Key || e1.AddedIn != e2.AddedIn {
				t.Fatalf("erratum %s differs across runs", e1.FullID())
			}
		}
	}
	// A different seed must give a different corpus.
	gt3, err := Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	d1, d3 := testGT.DB.Documents()[0], gt3.DB.Documents()[0]
	for j := range d1.Errata {
		if d1.Errata[j].Title != d3.Errata[j].Title {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGeneratedAnnotationsValid(t *testing.T) {
	if err := testGT.DB.Validate(); err != nil {
		t.Fatal(err)
	}
	scheme := taxonomy.Base()
	classesSeen := map[string]bool{}
	for _, e := range testGT.DB.Errata() {
		for _, it := range e.Ann.Triggers {
			classesSeen[scheme.ClassOf(it.Category)] = true
		}
		if len(e.Ann.Effects) == 0 {
			t.Fatalf("erratum %s has no effects", e.FullID())
		}
		if e.Ann.TrivialTrigger && len(e.Ann.Triggers) > 0 {
			t.Fatalf("erratum %s is trivial but has triggers", e.FullID())
		}
	}
	// Observation O9: all trigger classes are necessary.
	for _, cl := range scheme.ClassIDs(taxonomy.Trigger) {
		if !classesSeen[cl] {
			t.Errorf("trigger class %s never used", cl)
		}
	}
}

func TestMBRAbsentInLatestGenerations(t *testing.T) {
	// Figure 13: memory-boundary triggers are absent from Intel
	// generations 11 and 12.
	for _, dk := range []string{"intel-11", "intel-12"} {
		doc := testGT.DB.Docs[dk]
		for _, e := range doc.Errata {
			for _, it := range e.Ann.Triggers {
				if strings.HasPrefix(it.Category, "Trg_MBR") {
					t.Errorf("%s: MBR trigger %s in latest generation", e.FullID(), it.Category)
				}
			}
		}
	}
}

func TestInjectedErrorInventory(t *testing.T) {
	inv := testGT.Inventory
	if got := len(inv.DoubleAddedRevisions); got != 8 {
		t.Errorf("double-added revisions = %d, want 8", got)
	}
	if got := len(inv.MissingFromNotes); got != 12 {
		t.Errorf("missing-from-notes = %d, want 12", got)
	}
	if inv.ReusedName[0] == "" || inv.ReusedName[1] == "" {
		t.Error("reused-name error not injected")
	}
	if got := len(inv.FieldErrors); got != 7 {
		t.Errorf("field errors = %d, want 7", got)
	}
	if got := len(inv.WrongMSRNumbers); got != 3 {
		t.Errorf("wrong MSR numbers = %d, want 3", got)
	}
	if got := len(inv.IntraDocDuplicates); got != 11 {
		t.Errorf("intra-document duplicate pairs = %d, want 11", got)
	}
	// The reused name must make two entries share an ID in one document.
	doc := testGT.DB.Docs["intel-01d"]
	count := map[string]int{}
	for _, e := range doc.Errata {
		count[e.ID]++
	}
	dupIDs := 0
	for _, c := range count {
		if c > 1 {
			dupIDs++
		}
	}
	if dupIDs != 1 {
		t.Errorf("intel-01d has %d reused IDs, want exactly 1", dupIDs)
	}
}

func TestTitleVariants(t *testing.T) {
	if got := len(testGT.ConfirmedPairs); got != 29 {
		t.Fatalf("confirmed variant pairs = %d, want 29", got)
	}
	// Each pair's lineage must have at least one occurrence whose title
	// differs from the others.
	for _, pair := range testGT.ConfirmedPairs {
		linKey := pair[0]
		titles := map[string]bool{}
		for _, e := range testGT.DB.Errata() {
			if e.Key == linKey {
				titles[e.Title] = true
			}
		}
		if len(titles) < 2 {
			t.Errorf("lineage %s has no title variation", linKey)
		}
	}
}

func TestTitleUniquenessAcrossLineages(t *testing.T) {
	// Distinct lineages must never share a normalized title; otherwise
	// title-based deduplication would merge them.
	seen := map[string]string{} // normalized title -> lineage key
	for _, e := range testGT.DB.Errata() {
		norm := normTitle(e.Title)
		if prev, ok := seen[norm]; ok && prev != e.Key {
			t.Fatalf("lineages %s and %s share title %q", prev, e.Key, e.Title)
		}
		seen[norm] = e.Key
	}
}

func normTitle(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

func TestSharedLineagesIdenticalText(t *testing.T) {
	// All occurrences of a lineage share description and implication;
	// titles are identical except for the 29 variant entries, and
	// injected document errors (wrong MSR numbers, field errors) may
	// perturb individual occurrences.
	perturbed := map[string]bool{}
	for _, ref := range testGT.Inventory.WrongMSRNumbers {
		perturbed[ref] = true
	}
	for _, fe := range testGT.Inventory.FieldErrors {
		perturbed[fe.Ref] = true
	}
	byKey := map[string]*domain.Erratum{}
	for _, e := range testGT.DB.Errata() {
		if perturbed[EntryRef(e)] {
			continue
		}
		if first, ok := byKey[e.Key]; ok {
			if first.Description != e.Description {
				t.Fatalf("lineage %s: descriptions differ", e.Key)
			}
		} else {
			byKey[e.Key] = e
		}
	}
}

func TestDisclosureDatesOrdered(t *testing.T) {
	// Every erratum's revision must exist and revision dates ascend.
	for _, d := range testGT.DB.Documents() {
		for i := 1; i < len(d.Revisions); i++ {
			if d.Revisions[i].Date.Before(d.Revisions[i-1].Date) {
				t.Fatalf("%s: revision dates not ascending", d.Key)
			}
		}
		for _, e := range d.Errata {
			if e.AddedIn != 0 && d.Revision(e.AddedIn) == nil {
				t.Fatalf("%s: erratum %s references missing revision %d", d.Key, e.ID, e.AddedIn)
			}
		}
	}
}

func TestFractionCalibrations(t *testing.T) {
	// Check that the trivial-trigger and complex-condition fractions are
	// near their targets on unique errata (within 3 percentage points).
	for _, v := range domain.Vendors {
		unique := testGT.DB.UniqueVendor(v)
		trivial, complex := 0, 0
		for _, e := range unique {
			if e.Ann.TrivialTrigger {
				trivial++
			}
			if e.Ann.ComplexConditions {
				complex++
			}
		}
		trivFrac := float64(trivial) / float64(len(unique))
		if trivFrac < TrivialTriggerFraction-0.04 || trivFrac > TrivialTriggerFraction+0.04 {
			t.Errorf("%s trivial fraction = %.3f, want ~%.3f", v, trivFrac, TrivialTriggerFraction)
		}
		complexTarget := ComplexConditionFractionIntel
		if v == domain.AMD {
			complexTarget = ComplexConditionFractionAMD
		}
		cfrac := float64(complex) / float64(len(unique))
		if cfrac < complexTarget-0.05 || cfrac > complexTarget+0.05 {
			t.Errorf("%s complex fraction = %.3f, want ~%.3f", v, cfrac, complexTarget)
		}
	}
}

func TestWorkaroundNoneFractions(t *testing.T) {
	for _, v := range domain.Vendors {
		unique := testGT.DB.UniqueVendor(v)
		none := 0
		for _, e := range unique {
			if e.WorkaroundCat == domain.WorkaroundNone {
				none++
			}
		}
		frac := float64(none) / float64(len(unique))
		target := NoWorkaroundFractionIntel
		if v == domain.AMD {
			target = NoWorkaroundFractionAMD
		}
		if frac < target-0.06 || frac > target+0.06 {
			t.Errorf("%s no-workaround fraction = %.3f, want ~%.3f", v, frac, target)
		}
	}
}

func TestAMDSharedIDs(t *testing.T) {
	// Two AMD families affected by the same lineage must use the same
	// numeric identifier, and IDs must be unique per document.
	idByKey := map[string]string{}
	for _, d := range testGT.DB.VendorDocuments(domain.AMD) {
		seen := map[string]bool{}
		for _, e := range d.Errata {
			if seen[e.ID] {
				t.Fatalf("%s: duplicate AMD ID %s within document", d.Key, e.ID)
			}
			seen[e.ID] = true
			if prev, ok := idByKey[e.Key]; ok && prev != e.ID {
				t.Fatalf("lineage %s has IDs %s and %s", e.Key, prev, e.ID)
			}
			idByKey[e.Key] = e.ID
		}
	}
	// And distinct lineages must never share an ID.
	keyByID := map[string]string{}
	for k, id := range idByKey {
		if prev, ok := keyByID[id]; ok {
			t.Fatalf("AMD ID %s used by lineages %s and %s", id, prev, k)
		}
		keyByID[id] = k
	}
}

func TestLineageDocsMatchDatabase(t *testing.T) {
	occ := map[string]map[string]bool{}
	for _, e := range testGT.DB.Errata() {
		if occ[e.Key] == nil {
			occ[e.Key] = map[string]bool{}
		}
		occ[e.Key][e.DocKey] = true
	}
	for key, lin := range testGT.Lineages {
		docs := occ[key]
		if len(docs) != len(lin.Docs) {
			t.Fatalf("lineage %s: %d docs in DB, %d planned", key, len(docs), len(lin.Docs))
		}
		for _, dk := range lin.Docs {
			if !docs[dk] {
				t.Fatalf("lineage %s: missing planned doc %s", key, dk)
			}
		}
	}
}
