package heredity

import (
	"testing"
	"time"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

func date(y, m int) time.Time {
	return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC)
}

// buildDB builds three Intel documents with known key overlaps and
// disclosure dates.
func buildDB(t *testing.T) *domain.Database {
	t.Helper()
	db := domain.NewDatabase(taxonomy.Base())
	mk := func(key, label string, order, gen int, released time.Time, entries ...*domain.Erratum) {
		d := &domain.Document{
			Key: key, Vendor: domain.Intel, Label: label, Order: order,
			GenIndex: gen, Released: released, Errata: entries,
		}
		for i, e := range entries {
			e.DocKey = key
			e.Seq = i + 1
		}
		if err := db.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	mk("intel-06", "6", 0, 6, date(2015, 8),
		&domain.Erratum{ID: "S1", Key: "K1", Disclosed: date(2015, 9)},
		&domain.Erratum{ID: "S2", Key: "K2", Disclosed: date(2016, 1)},
		&domain.Erratum{ID: "S3", Key: "K3", Disclosed: date(2016, 5)},
	)
	mk("intel-07", "7/8", 1, 7, date(2016, 8),
		&domain.Erratum{ID: "T1", Key: "K1", Disclosed: date(2016, 9)}, // forward-latent
		&domain.Erratum{ID: "T2", Key: "K4", Disclosed: date(2016, 10)},
		&domain.Erratum{ID: "T3", Key: "K5", Disclosed: date(2017, 1)},
	)
	mk("intel-08", "8/9", 2, 8, date(2017, 10),
		&domain.Erratum{ID: "U1", Key: "K1", Disclosed: date(2017, 11)}, // forward-latent again
		&domain.Erratum{ID: "U2", Key: "K5", Disclosed: date(2017, 12)},
	)
	// K6 is reported in intel-08 first, then in intel-06 (backward).
	db.Docs["intel-08"].Errata = append(db.Docs["intel-08"].Errata,
		&domain.Erratum{DocKey: "intel-08", ID: "U3", Seq: 3, Key: "K6", Disclosed: date(2018, 1)})
	db.Docs["intel-06"].Errata = append(db.Docs["intel-06"].Errata,
		&domain.Erratum{DocKey: "intel-06", ID: "S4", Seq: 4, Key: "K6", Disclosed: date(2018, 6)})
	return db
}

func TestSharedMatrix(t *testing.T) {
	db := buildDB(t)
	m := SharedMatrix(db, domain.Intel)
	if len(m.Docs) != 3 {
		t.Fatalf("docs = %v", m.Docs)
	}
	// Diagonal: unique keys per document.
	if m.Counts[0][0] != 4 || m.Counts[1][1] != 3 || m.Counts[2][2] != 3 {
		t.Errorf("diagonal = %d,%d,%d", m.Counts[0][0], m.Counts[1][1], m.Counts[2][2])
	}
	// intel-06 & intel-07 share K1.
	if m.Counts[0][1] != 1 || m.Counts[1][0] != 1 {
		t.Errorf("share(06,07) = %d", m.Counts[0][1])
	}
	// intel-06 & intel-08 share K1 and K6.
	if m.Counts[0][2] != 2 {
		t.Errorf("share(06,08) = %d", m.Counts[0][2])
	}
	// intel-07 & intel-08 share K1 and K5.
	if m.Counts[1][2] != 2 {
		t.Errorf("share(07,08) = %d", m.Counts[1][2])
	}
}

func TestSharedKeys(t *testing.T) {
	db := buildDB(t)
	keys := SharedKeys(db, "intel-06", "intel-07", "intel-08")
	if len(keys) != 1 || keys[0] != "K1" {
		t.Errorf("shared keys = %v", keys)
	}
	keys = SharedKeys(db, "intel-06", "intel-08")
	if len(keys) != 2 {
		t.Errorf("shared(06,08) = %v", keys)
	}
	if SharedKeys(db) != nil {
		t.Error("no docs should give nil")
	}
	if SharedKeys(db, "missing") != nil {
		t.Error("missing doc should give nil")
	}
}

func TestDisclosureTraces(t *testing.T) {
	db := buildDB(t)
	traces := DisclosureTraces(db, []string{"K1"}, "intel-06", "intel-07", "intel-08")
	if len(traces) != 3 {
		t.Fatalf("traces = %d", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Dates) != 1 {
			t.Errorf("%s: dates = %v", tr.DocKey, tr.Dates)
		}
	}
	if !traces[0].Dates[0].Equal(date(2015, 9)) {
		t.Errorf("trace date = %v", traces[0].Dates[0])
	}
}

func TestForwardBackwardLatent(t *testing.T) {
	db := buildDB(t)
	res := ForwardBackwardLatent(db, domain.Intel)
	// K1 (06->07->08) and K5 (07->08) are forward-latent; K6 is
	// backward-latent (08 first, then 06).
	if res.ForwardTotal != 2 {
		t.Errorf("forward = %d, want 2", res.ForwardTotal)
	}
	if res.BackwardTotal != 1 {
		t.Errorf("backward = %d, want 1", res.BackwardTotal)
	}
	// K1's forward event is accumulated at the EARLIEST later report.
	if len(res.Forward) == 0 || !res.Forward[0].Date.Equal(date(2016, 9)) {
		t.Errorf("forward series = %+v", res.Forward)
	}
	if len(res.Backward) == 0 || !res.Backward[0].Date.Equal(date(2018, 6)) {
		t.Errorf("backward series = %+v", res.Backward)
	}
}

func TestLongestLineages(t *testing.T) {
	db := buildDB(t)
	lins := LongestLineages(db, 2)
	if len(lins) != 2 {
		t.Fatalf("lineages = %v", lins)
	}
	// K1 spans generations 6..8 (span 2), K6 spans 6..8 (span 2); K1
	// has more documents.
	if lins[0].Key != "K1" || lins[0].GenSpan != 2 || len(lins[0].Docs) != 3 {
		t.Errorf("top lineage = %+v", lins[0])
	}
	if lins[1].Key != "K6" {
		t.Errorf("second lineage = %+v", lins[1])
	}
}

func TestKnownBeforeNextRelease(t *testing.T) {
	db := buildDB(t)
	// K1 was disclosed in intel-06 on 2015-09, before intel-07's
	// release in 2016-08.
	n := KnownBeforeNextRelease(db, []string{"K1"}, "intel-06", "intel-07")
	if n != 1 {
		t.Errorf("known before release = %d, want 1", n)
	}
	// K6 was disclosed in intel-06 only in 2018, after intel-07's
	// release.
	n = KnownBeforeNextRelease(db, []string{"K6"}, "intel-06", "intel-07")
	if n != 0 {
		t.Errorf("known before release = %d, want 0", n)
	}
	if KnownBeforeNextRelease(db, []string{"K1"}, "nope", "intel-07") != 0 {
		t.Error("missing doc should give 0")
	}
}

func TestRediscoveryStats(t *testing.T) {
	db := buildDB(t)
	stats := RediscoveryStats(db, domain.Intel)
	if len(stats) != 3 {
		t.Fatalf("stats = %v", stats)
	}
	byDoc := map[string]Rediscovery{}
	for _, r := range stats {
		byDoc[r.DocKey] = r
	}
	// intel-06 is the first document: nothing inherited.
	r6 := byDoc["intel-06"]
	if r6.Keys != 4 || r6.Inherited != 0 || r6.KnownAtRelease != 0 {
		t.Errorf("intel-06 = %+v", r6)
	}
	// intel-07 inherits K1, disclosed in intel-06 (2015-09) before
	// intel-07's release (2016-08).
	r7 := byDoc["intel-07"]
	if r7.Inherited != 1 || r7.KnownAtRelease != 1 {
		t.Errorf("intel-07 = %+v", r7)
	}
	if r7.KnownFraction() != 1 {
		t.Errorf("intel-07 known fraction = %v", r7.KnownFraction())
	}
	// intel-08 shares K1 (known before its 2017-10 release), K5
	// (disclosed in intel-07 in 2017-01, also before) and K6 (shared
	// with intel-06 but only disclosed there in 2018 — a backward-latent
	// bug, so not known at release).
	r8 := byDoc["intel-08"]
	if r8.Inherited != 3 || r8.KnownAtRelease != 2 {
		t.Errorf("intel-08 = %+v", r8)
	}
	// Zero-inherited documents report fraction 0.
	if r6.KnownFraction() != 0 {
		t.Errorf("intel-06 fraction = %v", r6.KnownFraction())
	}
}
