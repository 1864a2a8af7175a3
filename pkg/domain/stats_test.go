package domain_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/specdoc"
	"repro/pkg/domain"
	// The test binary is its own composition root: generating corpora
	// and classifying ingested documents requires the default plugins.
	_ "repro/plugins/defaults"
)

// perVendorStats is the reference ComputeStats is held to: the
// per-vendor loop it replaced, one UniqueVendor call per vendor.
func perVendorStats(db *domain.Database) domain.Stats {
	var s domain.Stats
	for _, d := range db.Documents() {
		s.Documents++
		if d.Vendor == domain.Intel {
			s.IntelDocs++
			s.IntelTotal += len(d.Errata)
		} else {
			s.AMDDocs++
			s.AMDTotal += len(d.Errata)
		}
		s.Total += len(d.Errata)
	}
	for _, v := range domain.Vendors {
		u := db.UniqueVendor(v)
		if v == domain.Intel {
			s.IntelUnique = len(u)
		} else {
			s.AMDUnique = len(u)
		}
		s.Unique += len(u)
		for _, e := range u {
			if len(e.Ann.Triggers)+len(e.Ann.Contexts)+len(e.Ann.Effects) > 0 {
				s.Annotated++
			} else {
				s.Unclassified++
			}
		}
	}
	return s
}

// renderTexts renders one corpus seed into ingestible document texts in
// document-key order.
func renderTexts(t *testing.T, db *domain.Database) []string {
	t.Helper()
	rendered := specdoc.WriteAll(db, specdoc.WriteOptions{})
	keys := make([]string, 0, len(rendered))
	for k := range rendered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	texts := make([]string, 0, len(keys))
	for _, k := range keys {
		texts = append(texts, rendered[k])
	}
	return texts
}

// TestComputeStatsMatchesPerVendor holds ComputeStats's single Unique
// pass to the per-vendor loop over the 6-seed corpus matrix, over
// databases produced by streaming ingest, and over a database with a
// keyless entry, an entry whose DocKey names no document and one
// cluster key shared across vendors.
func TestComputeStatsMatchesPerVendor(t *testing.T) {
	check := func(name string, db *domain.Database) {
		t.Helper()
		if got, want := db.ComputeStats(), perVendorStats(db); got != want {
			t.Fatalf("%s: ComputeStats = %+v, per-vendor oracle = %+v", name, got, want)
		}
	}
	seeds := map[int64]*domain.Database{}
	for seed := int64(1); seed <= 6; seed++ {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		seeds[seed] = gt.DB
		check(fmt.Sprintf("corpus seed %d", seed), gt.DB)
	}

	// Ingest-produced: a cold ingest Build, and every snapshot of an
	// ingester seeded with one corpus while another's documents replace
	// its own one at a time.
	built, _, err := ingest.Build(nil, renderTexts(t, seeds[1]), ingest.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("ingest.Build seed 1", built)
	in := ingest.NewFrom(seeds[2], ingest.Options{Parallelism: 2})
	for i, text := range renderTexts(t, seeds[3]) {
		res, err := in.Apply([]string{text})
		if err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
		check(fmt.Sprintf("ingest snapshot %d", i), res.DB)
	}

	db := domain.NewDatabase(domain.BaseScheme())
	intel := sampleDoc()
	intel.Errata = append(intel.Errata,
		&domain.Erratum{DocKey: "intel-06", ID: "SKL004", Seq: 4, Title: "Not yet deduplicated"},
		&domain.Erratum{DocKey: "intel-99", ID: "SKL005", Seq: 5, Title: "Orphan", Key: "K0009",
			Ann: domain.Annotation{Effects: []domain.Item{{Category: "Eff_HNG_hng"}}}},
	)
	amd := &domain.Document{Key: "amd-17", Vendor: domain.AMD, Label: "17h", Order: 3,
		Errata: []*domain.Erratum{
			{DocKey: "amd-17", ID: "1001", Seq: 1, Title: "Same key, other vendor", Key: "K0001"},
			{DocKey: "amd-17", ID: "1002", Seq: 2, Title: "Keyless AMD entry"},
		},
	}
	for _, d := range []*domain.Document{intel, amd} {
		if err := db.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	check("hand-built", db)
	if s := db.ComputeStats(); s.IntelUnique != 4 || s.AMDUnique != 2 || s.Unique != 6 {
		t.Fatalf("hand-built: unique %d (Intel %d, AMD %d), want 6 (4, 2): the orphan belongs to no vendor",
			s.Unique, s.IntelUnique, s.AMDUnique)
	}
}
