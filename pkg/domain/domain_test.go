package domain_test

import (
	"strings"
	"testing"
	"time"

	"repro/pkg/domain"
)

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func sampleDoc() *domain.Document {
	return &domain.Document{
		Key:       "intel-06",
		Vendor:    domain.Intel,
		Label:     "6",
		Reference: "332689-028US",
		Order:     10,
		GenIndex:  6,
		Released:  date(2015, 8, 1),
		Revisions: []domain.Revision{
			{Number: 1, Date: date(2015, 9, 1), Added: []string{"SKL001", "SKL002"}},
			{Number: 2, Date: date(2015, 11, 1), Added: []string{"SKL003"}},
		},
		Errata: []*domain.Erratum{
			{
				DocKey: "intel-06", ID: "SKL001", Seq: 1,
				Title:       "Processor May Hang During Power State Transition",
				Description: "Under complex conditions the processor may hang.",
				Key:         "K0001",
				AddedIn:     1,
				Ann: domain.Annotation{
					Triggers: []domain.Item{{Category: "Trg_POW_pwc", Concrete: "resume from package C6"}},
					Contexts: []domain.Item{{Category: "Ctx_PRV_vmg", Concrete: "in a VM guest"}},
					Effects:  []domain.Item{{Category: "Eff_HNG_hng", Concrete: "the processor hangs"}},
				},
			},
			{
				DocKey: "intel-06", ID: "SKL002", Seq: 2,
				Title:   "Performance Counter May Be Incorrect",
				Key:     "K0002",
				AddedIn: 1,
				Ann: domain.Annotation{
					Effects: []domain.Item{{Category: "Eff_CRP_prf", Concrete: "wrong IA32_PMC0 value"}},
					MSRs:    []string{"IA32_PMC0"},
				},
			},
			{DocKey: "intel-06", ID: "SKL003", Seq: 3, Title: "Spurious Fault", Key: "K0003", AddedIn: 2},
		},
	}
}

func TestVendorRoundTrip(t *testing.T) {
	for _, v := range domain.Vendors {
		got, err := domain.ParseVendor(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVendor(%q) = (%v,%v)", v.String(), got, err)
		}
	}
	if _, err := domain.ParseVendor("via"); err == nil {
		t.Error("ParseVendor accepted unknown vendor")
	}
}

func TestWorkaroundCategoryRoundTrip(t *testing.T) {
	for _, w := range domain.WorkaroundCategories {
		got, err := domain.ParseWorkaroundCategory(w.String())
		if err != nil || got != w {
			t.Errorf("ParseWorkaroundCategory(%q) = (%v,%v)", w.String(), got, err)
		}
	}
	if _, err := domain.ParseWorkaroundCategory("magic"); err == nil {
		t.Error("accepted unknown workaround category")
	}
}

func TestFixStatusRoundTrip(t *testing.T) {
	for _, f := range domain.FixStatuses {
		got, err := domain.ParseFixStatus(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFixStatus(%q) = (%v,%v)", f.String(), got, err)
		}
	}
	if _, err := domain.ParseFixStatus("maybe"); err == nil {
		t.Error("accepted unknown fix status")
	}
}

func TestAnnotationAccessors(t *testing.T) {
	scheme := domain.BaseScheme()
	ann := domain.Annotation{
		Triggers: []domain.Item{
			{Category: "Trg_POW_pwc"}, {Category: "Trg_CFG_wrg"}, {Category: "Trg_POW_pwc"},
		},
		Effects: []domain.Item{{Category: "Eff_HNG_hng"}},
	}
	cats := ann.Categories(domain.Trigger, scheme)
	if len(cats) != 2 {
		t.Fatalf("Categories dedup failed: %v", cats)
	}
	// Scheme order: CFG before POW.
	if cats[0] != "Trg_CFG_wrg" || cats[1] != "Trg_POW_pwc" {
		t.Errorf("Categories order = %v", cats)
	}
	cls := ann.Classes(domain.Trigger, scheme)
	if len(cls) != 2 || cls[0] != "Trg_CFG" || cls[1] != "Trg_POW" {
		t.Errorf("Classes = %v", cls)
	}
	if !ann.Has("Eff_HNG_hng") || ann.Has("Eff_HNG_unp") {
		t.Error("Has() wrong")
	}
	if err := ann.Validate(scheme); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAnnotationValidateRejects(t *testing.T) {
	scheme := domain.BaseScheme()
	bad := domain.Annotation{Triggers: []domain.Item{{Category: "Trg_NOPE_xxx"}}}
	if err := bad.Validate(scheme); err == nil {
		t.Error("Validate accepted unknown category")
	}
	wrongKind := domain.Annotation{Triggers: []domain.Item{{Category: "Eff_HNG_hng"}}}
	if err := wrongKind.Validate(scheme); err == nil {
		t.Error("Validate accepted effect category as trigger")
	}
}

func TestAnnotationClone(t *testing.T) {
	a := domain.Annotation{
		Triggers: []domain.Item{{Category: "Trg_POW_pwc", Concrete: "x"}},
		MSRs:     []string{"MC0_STATUS"},
	}
	c := a.Clone()
	c.Triggers[0].Concrete = "mutated"
	c.MSRs[0] = "mutated"
	if a.Triggers[0].Concrete != "x" || a.MSRs[0] != "MC0_STATUS" {
		t.Error("Clone shares backing arrays")
	}
}

func TestDocumentLookups(t *testing.T) {
	d := sampleDoc()
	if r := d.Revision(2); r == nil || r.Date != date(2015, 11, 1) {
		t.Error("Revision(2) lookup failed")
	}
	if d.Revision(99) != nil {
		t.Error("Revision(99) should be nil")
	}
	if lr := d.LatestRevision(); lr == nil || lr.Number != 2 {
		t.Error("LatestRevision failed")
	}
	if e := d.Erratum("SKL002"); e == nil || e.Seq != 2 {
		t.Error("Erratum lookup failed")
	}
	if d.Erratum("nope") != nil {
		t.Error("Erratum(nope) should be nil")
	}
	empty := &domain.Document{}
	if empty.LatestRevision() != nil {
		t.Error("LatestRevision of empty doc should be nil")
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	if err := db.Add(sampleDoc()); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(sampleDoc()); err == nil {
		t.Error("Add accepted duplicate key")
	}
	if err := db.Add(&domain.Document{}); err == nil {
		t.Error("Add accepted empty key")
	}

	amdDoc := &domain.Document{
		Key: "amd-19h-00", Vendor: domain.AMD, Label: "19h 00-0F", Order: 11,
		Errata: []*domain.Erratum{
			{DocKey: "amd-19h-00", ID: "1361", Seq: 1, Title: "Hang", Key: "1361"},
			{DocKey: "amd-19h-00", ID: "1362", Seq: 2, Title: "Other", Key: "1362"},
		},
	}
	if err := db.Add(amdDoc); err != nil {
		t.Fatal(err)
	}

	docs := db.Documents()
	if len(docs) != 2 || docs[0].Vendor != domain.Intel || docs[1].Vendor != domain.AMD {
		t.Fatalf("Documents order wrong: %v", docs)
	}
	if len(db.VendorDocuments(domain.Intel)) != 1 || len(db.VendorDocuments(domain.AMD)) != 1 {
		t.Error("VendorDocuments wrong")
	}
	if got := len(db.Errata()); got != 5 {
		t.Errorf("Errata() = %d entries, want 5", got)
	}
	if got := len(db.VendorErrata(domain.Intel)); got != 3 {
		t.Errorf("VendorErrata(Intel) = %d, want 3", got)
	}
	if err := db.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestUniqueRepresentatives(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	d1 := sampleDoc()
	if err := db.Add(d1); err != nil {
		t.Fatal(err)
	}
	// A later generation sharing key K0001.
	d2 := &domain.Document{
		Key: "intel-07", Vendor: domain.Intel, Label: "7/8", Order: 11, GenIndex: 7,
		Errata: []*domain.Erratum{
			{DocKey: "intel-07", ID: "KBL001", Seq: 1, Title: "Processor May Hang During Power State Transition", Key: "K0001"},
			{DocKey: "intel-07", ID: "KBL002", Seq: 2, Title: "Fresh Bug", Key: "K0100"},
		},
	}
	if err := db.Add(d2); err != nil {
		t.Fatal(err)
	}
	u := db.Unique()
	if len(u) != 4 {
		t.Fatalf("Unique() = %d entries, want 4", len(u))
	}
	// The K0001 representative must come from the earlier document.
	for _, e := range u {
		if e.Key == "K0001" && e.DocKey != "intel-06" {
			t.Errorf("representative for K0001 from %s, want intel-06", e.DocKey)
		}
	}
	stats := db.ComputeStats()
	if stats.Total != 5 || stats.IntelTotal != 5 || stats.IntelUnique != 4 || stats.Unique != 4 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Annotated != 2 || stats.Unclassified != 2 {
		t.Errorf("annotation stats = %+v", stats)
	}
}

func TestOccurrences(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	if err := db.Add(sampleDoc()); err != nil {
		t.Fatal(err)
	}
	occ := db.Occurrences(domain.Intel)
	if len(occ) != 3 || len(occ["K0001"]) != 1 {
		t.Errorf("Occurrences = %v", occ)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	d := sampleDoc()
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	d.Errata[0].DocKey = "wrong"
	if err := db.Validate(); err == nil {
		t.Error("Validate missed DocKey mismatch")
	}
	d.Errata[0].DocKey = d.Key
	d.Errata[1].ID = ""
	if err := db.Validate(); err == nil {
		t.Error("Validate missed empty ID")
	}
	d.Errata[1].ID = "SKL002"
	d.Errata[2].Ann.Triggers = []domain.Item{{Category: "garbage"}}
	if err := db.Validate(); err == nil {
		t.Error("Validate missed bad annotation")
	}
}

func TestStructuredErratum(t *testing.T) {
	d := sampleDoc()
	e := d.Errata[0]
	e.Implication = "System may hang."
	e.Workaround = ""
	s := domain.Structure(e)
	if s.ID != "K0001" || s.Title != e.Title {
		t.Errorf("Structure header wrong: %+v", s)
	}
	if len(s.Triggers) != 1 || s.Triggers[0].Category != "Trg_POW_pwc" {
		t.Errorf("Structure triggers wrong: %+v", s.Triggers)
	}
	if err := s.Validate(domain.BaseScheme()); err != nil {
		t.Errorf("Validate: %v", err)
	}
	out := s.Render()
	for _, want := range []string{"ID: K0001", "Abstract: Trg_POW_pwc",
		"Concrete: resume from package C6", "Workaround: None identified.",
		"Comments: System may hang."} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	// Keyless errata fall back to the full ID.
	e2 := d.Errata[1].Clone()
	e2.Key = ""
	if got := domain.Structure(e2).ID; got != "intel-06/SKL002" {
		t.Errorf("fallback ID = %q", got)
	}
}

func TestStructuredValidateRejects(t *testing.T) {
	scheme := domain.BaseScheme()
	if err := (domain.StructuredErratum{Title: "t"}).Validate(scheme); err == nil {
		t.Error("accepted empty ID")
	}
	if err := (domain.StructuredErratum{ID: "x"}).Validate(scheme); err == nil {
		t.Error("accepted empty title")
	}
	bad := domain.StructuredErratum{ID: "x", Title: "t",
		Effects: []domain.Item{{Category: "Trg_POW_pwc"}}}
	if err := bad.Validate(scheme); err == nil {
		t.Error("accepted trigger category as effect")
	}
}

func TestErratumClone(t *testing.T) {
	e := sampleDoc().Errata[0]
	c := e.Clone()
	c.Ann.Triggers[0].Concrete = "mutated"
	if e.Ann.Triggers[0].Concrete == "mutated" {
		t.Error("Erratum.Clone shares annotation")
	}
	if e.FullID() != "intel-06/SKL001" {
		t.Errorf("FullID = %q", e.FullID())
	}
}

func TestSetItems(t *testing.T) {
	var a domain.Annotation
	a.SetItems(domain.Context, []domain.Item{{Category: "Ctx_PRV_smm"}})
	if len(a.Contexts) != 1 {
		t.Error("SetItems(Context) failed")
	}
	a.SetItems(domain.Trigger, []domain.Item{{Category: "Trg_FLT_tmr"}})
	a.SetItems(domain.Effect, []domain.Item{{Category: "Eff_FLT_mca"}})
	for _, k := range domain.Kinds {
		if len(a.Items(k)) != 1 {
			t.Errorf("Items(%v) = %d, want 1", k, len(a.Items(k)))
		}
	}
}
