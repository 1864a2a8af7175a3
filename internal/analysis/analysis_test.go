package analysis

import (
	"math"
	"testing"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// buildDB builds a small annotated database with known statistics.
func buildDB(t *testing.T) *domain.Database {
	t.Helper()
	db := domain.NewDatabase(taxonomy.Base())
	ann := func(trgs, ctxs, effs []string, msrs ...string) domain.Annotation {
		var a domain.Annotation
		for _, c := range trgs {
			a.Triggers = append(a.Triggers, domain.Item{Category: c})
		}
		for _, c := range ctxs {
			a.Contexts = append(a.Contexts, domain.Item{Category: c})
		}
		for _, c := range effs {
			a.Effects = append(a.Effects, domain.Item{Category: c})
		}
		a.MSRs = msrs
		return a
	}
	intel := &domain.Document{
		Key: "intel-06", Vendor: domain.Intel, Label: "6", Order: 0, GenIndex: 6,
		Errata: []*domain.Erratum{
			{DocKey: "intel-06", ID: "S1", Seq: 1, Key: "K1",
				Ann:           ann([]string{"Trg_CFG_wrg", "Trg_POW_tht"}, []string{"Ctx_PRV_vmg"}, []string{"Eff_CRP_reg"}, "MCx_STATUS"),
				WorkaroundCat: domain.WorkaroundNone, Fix: domain.FixNone},
			{DocKey: "intel-06", ID: "S2", Seq: 2, Key: "K2",
				Ann:           ann([]string{"Trg_POW_pwc"}, nil, []string{"Eff_HNG_hng"}),
				WorkaroundCat: domain.WorkaroundBIOS, Fix: domain.FixDone},
			{DocKey: "intel-06", ID: "S3", Seq: 3, Key: "K3",
				Ann: func() domain.Annotation {
					a := ann(nil, nil, []string{"Eff_HNG_unp"})
					a.TrivialTrigger = true
					return a
				}(),
				WorkaroundCat: domain.WorkaroundSoftware, Fix: domain.FixNone},
		},
	}
	intel2 := &domain.Document{
		Key: "intel-07", Vendor: domain.Intel, Label: "7/8", Order: 1, GenIndex: 7,
		Errata: []*domain.Erratum{
			// Duplicate of K1: must not be double-counted in unique studies.
			{DocKey: "intel-07", ID: "T1", Seq: 1, Key: "K1",
				Ann:           ann([]string{"Trg_CFG_wrg", "Trg_POW_tht"}, []string{"Ctx_PRV_vmg"}, []string{"Eff_CRP_reg"}, "MCx_STATUS"),
				WorkaroundCat: domain.WorkaroundNone, Fix: domain.FixPlanned},
		},
	}
	amd := &domain.Document{
		Key: "amd-19h-00", Vendor: domain.AMD, Label: "19h 00-0F", Order: 0,
		Errata: []*domain.Erratum{
			{DocKey: "amd-19h-00", ID: "1001", Seq: 1, Key: "A-1001",
				Ann:           ann([]string{"Trg_EXT_bus"}, []string{"Ctx_PRV_vmg"}, []string{"Eff_HNG_hng"}),
				WorkaroundCat: domain.WorkaroundNone, Fix: domain.FixNone},
		},
	}
	for _, d := range []*domain.Document{intel, intel2, amd} {
		if err := db.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestFrequentCategories(t *testing.T) {
	db := buildDB(t)
	freq := FrequentCategories(db, taxonomy.Trigger)
	intel := freq[domain.Intel]
	if len(intel) != 3 {
		t.Fatalf("intel triggers = %v", intel)
	}
	counts := map[string]int{}
	for _, cc := range intel {
		counts[cc.Category] = cc.Count
	}
	// K1 counted once despite the duplicate in intel-07.
	if counts["Trg_CFG_wrg"] != 1 || counts["Trg_POW_tht"] != 1 || counts["Trg_POW_pwc"] != 1 {
		t.Errorf("intel counts = %v", counts)
	}
	if len(freq[domain.AMD]) != 1 || freq[domain.AMD][0].Category != "Trg_EXT_bus" {
		t.Errorf("amd = %v", freq[domain.AMD])
	}
	ctx := FrequentCategories(db, taxonomy.Context)
	if ctx[domain.Intel][0].Category != "Ctx_PRV_vmg" || ctx[domain.Intel][0].Count != 1 {
		t.Errorf("contexts = %v", ctx[domain.Intel])
	}
}

func TestWorkarounds(t *testing.T) {
	db := buildDB(t)
	w := Workarounds(db)
	if w[domain.Intel][domain.WorkaroundNone] != 1 || w[domain.Intel][domain.WorkaroundBIOS] != 1 ||
		w[domain.Intel][domain.WorkaroundSoftware] != 1 {
		t.Errorf("intel workarounds = %v", w[domain.Intel])
	}
	if w[domain.AMD][domain.WorkaroundNone] != 1 {
		t.Errorf("amd workarounds = %v", w[domain.AMD])
	}
}

func TestFixes(t *testing.T) {
	db := buildDB(t)
	fixes := Fixes(db)
	if len(fixes) != 3 {
		t.Fatalf("fixes = %v", fixes)
	}
	byDoc := map[string]FixCount{}
	for _, f := range fixes {
		byDoc[f.DocKey] = f
	}
	f6 := byDoc["intel-06"]
	if f6.Fixed != 1 || f6.Unfixed != 2 || f6.Planned != 0 || f6.Total() != 3 {
		t.Errorf("intel-06 fixes = %+v", f6)
	}
	f7 := byDoc["intel-07"]
	if f7.Planned != 1 {
		t.Errorf("intel-07 fixes = %+v", f7)
	}
}

func TestTriggerCountHistogram(t *testing.T) {
	db := buildDB(t)
	tc := TriggerCountHistogram(db)
	if tc.Total != 4 {
		t.Errorf("total = %d, want 4 unique errata", tc.Total)
	}
	if tc.Excluded != 1 {
		t.Errorf("excluded = %d, want 1 (the trivial erratum)", tc.Excluded)
	}
	if tc.PerCount[1] != 2 || tc.PerCount[2] != 1 {
		t.Errorf("histogram = %v", tc.PerCount)
	}
	if f := tc.AtLeastTwoFraction(); math.Abs(f-1.0/3.0) > 1e-9 {
		t.Errorf("at-least-two = %v, want 1/3", f)
	}
	if f := tc.ExcludedFraction(); math.Abs(f-0.25) > 1e-9 {
		t.Errorf("excluded fraction = %v, want 0.25", f)
	}
	intelOnly := TriggerCountHistogram(db, domain.Intel)
	if intelOnly.Total != 3 {
		t.Errorf("intel total = %d", intelOnly.Total)
	}
}

func TestTriggerCorrelation(t *testing.T) {
	db := buildDB(t)
	c := TriggerCorrelation(db)
	if c.Pair("Trg_CFG_wrg", "Trg_POW_tht") != 1 {
		t.Errorf("pair(wrg,tht) = %d", c.Pair("Trg_CFG_wrg", "Trg_POW_tht"))
	}
	if c.Pair("Trg_CFG_wrg", "Trg_CFG_wrg") != 1 {
		t.Errorf("diagonal(wrg) = %d", c.Pair("Trg_CFG_wrg", "Trg_CFG_wrg"))
	}
	if c.Pair("Trg_CFG_wrg", "Trg_POW_pwc") != 0 {
		t.Error("unrelated pair non-zero")
	}
	if c.Pair("bogus", "Trg_POW_pwc") != 0 {
		t.Error("unknown category should give 0")
	}
	top := c.TopPairs(5)
	if len(top) != 1 || top[0].A != "Trg_CFG_wrg" || top[0].B != "Trg_POW_tht" {
		t.Errorf("top pairs = %v", top)
	}
}

func TestClassesOverGenerations(t *testing.T) {
	db := buildDB(t)
	rows := ClassesOverGenerations(db)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	r6 := rows[0]
	if r6.DocKey != "intel-06" || r6.Errata != 3 {
		t.Errorf("row 6 = %+v", r6)
	}
	if r6.Classes["Trg_CFG"] != 1 || r6.Classes["Trg_POW"] != 2 {
		t.Errorf("row 6 classes = %v", r6.Classes)
	}
}

func TestClassRepresentation(t *testing.T) {
	db := buildDB(t)
	rep := ClassRepresentation(db, taxonomy.Trigger)
	intel := rep[domain.Intel]
	shares := map[string]float64{}
	for _, s := range intel {
		shares[s.Class] = s.Share
	}
	// Intel unique triggers: wrg, tht, pwc -> CFG 1/3, POW 2/3.
	if math.Abs(shares["Trg_CFG"]-1.0/3.0) > 1e-9 || math.Abs(shares["Trg_POW"]-2.0/3.0) > 1e-9 {
		t.Errorf("intel shares = %v", shares)
	}
	amd := rep[domain.AMD]
	for _, s := range amd {
		if s.Class == "Trg_EXT" && s.Share != 1 {
			t.Errorf("amd EXT share = %v", s.Share)
		}
	}
}

func TestClassBreakdown(t *testing.T) {
	db := buildDB(t)
	br := ClassBreakdown(db, "Trg_EXT")
	amd := br[domain.AMD]
	found := false
	for _, s := range amd {
		if s.Category == "Trg_EXT_bus" {
			found = true
			if s.Share != 1 {
				t.Errorf("bus share = %v", s.Share)
			}
		}
	}
	if !found {
		t.Error("Trg_EXT_bus missing from breakdown")
	}
	if ClassBreakdown(db, "garbage") != nil {
		t.Error("bad class should give nil")
	}
}

func TestMSRFrequency(t *testing.T) {
	db := buildDB(t)
	freq := MSRFrequency(db)
	intel := freq[domain.Intel]
	if len(intel) != 1 || intel[0].MSR != "MCx_STATUS" || intel[0].Count != 1 {
		t.Errorf("intel MSRs = %v", intel)
	}
	if math.Abs(intel[0].Share-1.0/3.0) > 1e-9 {
		t.Errorf("share = %v, want 1/3", intel[0].Share)
	}
	if len(freq[domain.AMD]) != 0 {
		t.Errorf("amd MSRs = %v", freq[domain.AMD])
	}
}
