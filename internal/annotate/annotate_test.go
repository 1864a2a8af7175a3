package annotate

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/specdoc"
	"repro/internal/taxonomy"
	"repro/pkg/domain"
	corpusprofile "repro/plugins/corpusprofile/intelamd"
)

// buildPipelineDB runs generate -> render -> parse -> dedup and returns
// the parsed database plus the ground truth.
func buildPipelineDB(t testing.TB, seed int64) (*domain.Database, *corpus.GroundTruth) {
	t.Helper()
	gt, err := corpus.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	db, _, err := specdoc.ParseAll(texts)
	if err != nil {
		t.Fatal(err)
	}
	truthKey := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truthKey[corpus.EntryRef(e)] = e.Key
	}
	oracle := func(a, b *domain.Erratum) bool {
		return truthKey[corpus.EntryRef(a)] != "" &&
			truthKey[corpus.EntryRef(a)] == truthKey[corpus.EntryRef(b)]
	}
	if _, err := dedup.Deduplicate(db, dedup.Options{Oracle: oracle}); err != nil {
		t.Fatal(err)
	}
	return db, gt
}

// truthFromGT builds the Truth callback from the ground truth.
func truthFromGT(gt *corpus.GroundTruth) Truth {
	anns := make(map[string]*domain.Annotation)
	for _, e := range gt.DB.Errata() {
		ann := e.Ann
		anns[corpus.EntryRef(e)] = &ann
	}
	return func(e *domain.Erratum) *domain.Annotation {
		return anns[corpus.EntryRef(e)]
	}
}

func TestFullPipelineRecoversGroundTruth(t *testing.T) {
	db, gt := buildPipelineDB(t, 11)
	engine := classify.NewEngine()
	res, err := Run(db, engine, truthFromGT(gt), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Every unique erratum's recovered categories must equal the ground
	// truth exactly on all three dimensions.
	truth := truthFromGT(gt)
	scheme := taxonomy.Base()
	checked := 0
	for _, e := range db.Unique() {
		want := truth(e)
		if want == nil {
			t.Fatalf("no ground truth for %s", e.FullID())
		}
		for _, k := range taxonomy.Kinds {
			got := e.Ann.Categories(k, scheme)
			exp := want.Categories(k, scheme)
			if len(got) != len(exp) {
				t.Fatalf("%s %s: got %v, want %v\ndesc: %s",
					e.FullID(), k.Name(), got, exp, e.Description)
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("%s %s: got %v, want %v", e.FullID(), k.Name(), got, exp)
				}
			}
		}
		if e.Ann.TrivialTrigger != want.TrivialTrigger {
			t.Fatalf("%s: trivial flag %v, want %v", e.FullID(), e.Ann.TrivialTrigger, want.TrivialTrigger)
		}
		if e.Ann.ComplexConditions != want.ComplexConditions {
			t.Fatalf("%s: complex flag mismatch", e.FullID())
		}
		if e.Ann.SimulationOnly != want.SimulationOnly {
			t.Fatalf("%s: simulation-only flag mismatch", e.FullID())
		}
		if len(e.Ann.MSRs) != len(want.MSRs) {
			t.Fatalf("%s: MSRs %v, want %v", e.FullID(), e.Ann.MSRs, want.MSRs)
		}
		checked++
	}
	if checked != corpusprofile.TargetUnique {
		t.Errorf("checked %d unique errata, want %d", checked, corpusprofile.TargetUnique)
	}

	// The paper's simulation-only population: one Intel and five AMD
	// errata.
	simIntel, simAMD := 0, 0
	for _, e := range db.UniqueVendor(domain.Intel) {
		if e.Ann.SimulationOnly {
			simIntel++
		}
	}
	for _, e := range db.UniqueVendor(domain.AMD) {
		if e.Ann.SimulationOnly {
			simAMD++
		}
	}
	if simIntel != 1 || simAMD != 5 {
		t.Errorf("simulation-only errata = (%d Intel, %d AMD), want (1, 5)", simIntel, simAMD)
	}

	// Decision volume: the filter must achieve a reduction comparable to
	// the paper's (67,680 -> 2,064 per human, a factor ~33). Our corpus
	// is calibrated to land in the same order of magnitude.
	if res.FilterStats.RawDecisions != corpusprofile.TargetUnique*60 {
		t.Errorf("raw decisions = %d, want %d", res.FilterStats.RawDecisions, corpusprofile.TargetUnique*60)
	}
	if res.HumanDecisions < 800 || res.HumanDecisions > 4500 {
		t.Errorf("human decisions = %d, want within [800,4500] (paper: 2,064)", res.HumanDecisions)
	}
	if f := res.FilterStats.ReductionFactor(); f < 10 {
		t.Errorf("reduction factor = %.1f, want >= 10", f)
	}
}

func TestProtocolSteps(t *testing.T) {
	db, gt := buildPipelineDB(t, 12)
	engine := classify.NewEngine()
	res, err := Run(db, engine, truthFromGT(gt), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 7 {
		t.Fatalf("steps = %d, want 7", len(res.Steps))
	}
	cum := 0
	for i, s := range res.Steps {
		cum += s.Errata
		if s.CumulativeErrata != cum {
			t.Errorf("step %d: cumulative %d, want %d", s.Step, s.CumulativeErrata, cum)
		}
		if s.Step != i+1 {
			t.Errorf("step numbering wrong at %d", i)
		}
		// Figure 9: agreement generally above 80%.
		if s.Decisions > 50 && s.AgreementPct < 75 {
			t.Errorf("step %d agreement = %.1f%%, want >= 75%%", s.Step, s.AgreementPct)
		}
	}
	if cum != corpusprofile.TargetUnique {
		t.Errorf("cumulative errata = %d, want %d", cum, corpusprofile.TargetUnique)
	}
	// Agreement improves from the first to the last step.
	first, last := res.Steps[0], res.Steps[len(res.Steps)-1]
	if first.Decisions > 50 && last.Decisions > 50 && last.AgreementPct <= first.AgreementPct-2 {
		t.Errorf("agreement did not improve: %.1f%% -> %.1f%%", first.AgreementPct, last.AgreementPct)
	}
}

func TestDuplicatesInheritAnnotation(t *testing.T) {
	db, gt := buildPipelineDB(t, 13)
	engine := classify.NewEngine()
	if _, err := Run(db, engine, truthFromGT(gt), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	scheme := taxonomy.Base()
	byCluster := map[string][]*domain.Erratum{}
	for _, e := range db.Errata() {
		byCluster[e.DocKeyVendor()+"|"+e.Key] = append(byCluster[e.DocKeyVendor()+"|"+e.Key], e)
	}
	for key, entries := range byCluster {
		if len(entries) < 2 {
			continue
		}
		ref := entries[0].Ann.Categories(taxonomy.Trigger, scheme)
		for _, e := range entries[1:] {
			got := e.Ann.Categories(taxonomy.Trigger, scheme)
			if len(got) != len(ref) {
				t.Fatalf("cluster %s: occurrence annotations differ", key)
			}
		}
	}
}

func TestRunWithoutTruthResolvesToExclude(t *testing.T) {
	db, _ := buildPipelineDB(t, 14)
	engine := classify.NewEngine()
	res, err := Run(db, engine, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolvedIncludes != 0 {
		t.Errorf("resolved includes = %d without truth", res.ResolvedIncludes)
	}
	// Auto-included categories must still be applied.
	annotated := 0
	for _, e := range db.Unique() {
		if len(e.Ann.Triggers)+len(e.Ann.Effects) > 0 {
			annotated++
		}
	}
	if annotated < corpusprofile.TargetUnique/2 {
		t.Errorf("only %d errata annotated without truth", annotated)
	}
}

func TestOptionValidation(t *testing.T) {
	db := domain.NewDatabase(taxonomy.Base())
	engine := classify.NewEngine()
	if _, err := Run(db, engine, nil, Options{Steps: 0}); err == nil {
		t.Error("accepted zero steps")
	}
	if _, err := Run(db, engine, nil, Options{Steps: 3, StepFractions: []float64{1}}); err == nil {
		t.Error("accepted mismatched fractions")
	}
}

func TestStepBounds(t *testing.T) {
	b := stepBounds(100, []float64{0.25, 0.25, 0.5})
	if b[0] != 25 || b[1] != 50 || b[2] != 100 {
		t.Errorf("bounds = %v", b)
	}
	b = stepBounds(0, []float64{0.5, 0.5})
	if b[1] != 0 {
		t.Errorf("empty bounds = %v", b)
	}
}

func TestCohenKappa(t *testing.T) {
	// Perfect agreement with balanced marginals: kappa 1.
	if k := cohenKappa(100, 100, 50, 50); k != 1 {
		t.Errorf("perfect kappa = %v", k)
	}
	// Chance-level agreement: two annotators always saying "exclude"
	// agree 100% but kappa treats it as degenerate (pe = 1 -> 1).
	if k := cohenKappa(100, 100, 0, 0); k != 1 {
		t.Errorf("degenerate kappa = %v", k)
	}
	// Independent coin flips: agreement ~50%, kappa ~0.
	if k := cohenKappa(1000, 500, 500, 500); k > 0.01 || k < -0.01 {
		t.Errorf("chance kappa = %v, want ~0", k)
	}
	// Kappa is lower than raw agreement when the positive class is rare.
	raw := 0.9
	k := cohenKappa(1000, 900, 80, 100)
	if k >= raw {
		t.Errorf("kappa %v not below raw %v for skewed marginals", k, raw)
	}
}

func TestKappaReportedPerStep(t *testing.T) {
	db, gt := buildPipelineDB(t, 15)
	engine := classify.NewEngine()
	res, err := Run(db, engine, truthFromGT(gt), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.Decisions > 50 {
			if s.Kappa <= 0 || s.Kappa > 1 {
				t.Errorf("step %d: kappa = %v out of range", s.Step, s.Kappa)
			}
			// Kappa is chance-corrected: it must not exceed raw agreement.
			if s.Kappa > s.AgreementPct/100+1e-9 {
				t.Errorf("step %d: kappa %v above raw agreement %v", s.Step, s.Kappa, s.AgreementPct/100)
			}
		}
	}
}
