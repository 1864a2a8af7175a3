package timeline

import (
	"testing"
	"testing/quick"
	"time"

	"repro/pkg/domain"
)

func date(y, m int) time.Time {
	return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC)
}

func docWith(addedIn ...int) *domain.Document {
	d := &domain.Document{
		Key: "intel-06", Vendor: domain.Intel, Label: "6", GenIndex: 6,
		Released: date(2015, 8),
		Revisions: []domain.Revision{
			{Number: 1, Date: date(2015, 9)},
			{Number: 2, Date: date(2015, 11)},
			{Number: 3, Date: date(2016, 2)},
		},
	}
	for i, rev := range addedIn {
		d.Errata = append(d.Errata, &domain.Erratum{
			DocKey: d.Key, ID: string(rune('A' + i)), Seq: i + 1, AddedIn: rev,
		})
	}
	return d
}

func TestDirectDating(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	d := docWith(1, 2, 3)
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	st := InferDisclosures(db, DefaultOptions())
	if st.Dated != 3 || st.Interpolated != 0 || st.Fallback != 0 {
		t.Errorf("stats = %+v", st)
	}
	if !d.Errata[0].Disclosed.Equal(date(2015, 9)) ||
		!d.Errata[1].Disclosed.Equal(date(2015, 11)) ||
		!d.Errata[2].Disclosed.Equal(date(2016, 2)) {
		t.Error("direct dates wrong")
	}
}

func TestInterpolationUsesSubsequentErratum(t *testing.T) {
	// The middle erratum is missing from the notes; its date must come
	// from the subsequent erratum (the paper's rule).
	db := domain.NewDatabase(domain.BaseScheme())
	d := docWith(1, 0, 3)
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	st := InferDisclosures(db, DefaultOptions())
	if st.Interpolated != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !d.Errata[1].Disclosed.Equal(date(2016, 2)) {
		t.Errorf("interpolated date = %v, want 2016-02", d.Errata[1].Disclosed)
	}
}

func TestInterpolationFallsBackToPrevious(t *testing.T) {
	// The last erratum is unmentioned: no subsequent known erratum, so
	// the previous one's date applies.
	db := domain.NewDatabase(domain.BaseScheme())
	d := docWith(1, 2, 0)
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	InferDisclosures(db, DefaultOptions())
	if !d.Errata[2].Disclosed.Equal(date(2015, 11)) {
		t.Errorf("fallback date = %v, want 2015-11", d.Errata[2].Disclosed)
	}
}

func TestNoInterpolationUsesFirstRevision(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	d := docWith(1, 0, 3)
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	st := InferDisclosures(db, Options{Interpolate: false})
	if st.Fallback != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !d.Errata[1].Disclosed.Equal(date(2015, 9)) {
		t.Errorf("fallback date = %v, want first revision", d.Errata[1].Disclosed)
	}
}

func TestAllUnknown(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	d := docWith(0, 0)
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	st := InferDisclosures(db, DefaultOptions())
	if st.Fallback != 2 {
		t.Errorf("stats = %+v", st)
	}
	for _, e := range d.Errata {
		if !e.Disclosed.Equal(date(2015, 9)) {
			t.Errorf("date = %v", e.Disclosed)
		}
	}
}

func TestCumulative(t *testing.T) {
	db := domain.NewDatabase(domain.BaseScheme())
	d := docWith(1, 1, 2, 3)
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	InferDisclosures(db, DefaultOptions())
	series := CumulativeByDocument(db)["intel-06"]
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	if series[0].Cumulative != 2 || series[1].Cumulative != 3 || series[2].Cumulative != 4 {
		t.Errorf("cumulative = %v", series)
	}
	for i := 1; i < len(series); i++ {
		if !series[i].Date.After(series[i-1].Date) {
			t.Error("series dates not ascending")
		}
	}
}

func TestConcavity(t *testing.T) {
	// A concave curve: most disclosures early.
	concave := []SeriesPoint{
		{date(2015, 1), 50}, {date(2015, 6), 80}, {date(2017, 1), 100},
	}
	if c := Concavity(concave); c <= 0.5 {
		t.Errorf("concave curve concavity = %v, want > 0.5", c)
	}
	convex := []SeriesPoint{
		{date(2015, 1), 5}, {date(2016, 10), 20}, {date(2017, 1), 100},
	}
	if c := Concavity(convex); c > 0.5 {
		t.Errorf("convex curve concavity = %v, want <= 0.5", c)
	}
	if Concavity(nil) != 1 || Concavity(concave[:1]) != 1 {
		t.Error("degenerate concavity should be 1")
	}
}

// Property: inference always assigns a non-zero date to every erratum
// with at least one revision present, and dated+interpolated+fallback
// partitions the errata.
func TestPropertyInferenceTotal(t *testing.T) {
	f := func(revs []uint8) bool {
		if len(revs) == 0 {
			revs = []uint8{1}
		}
		if len(revs) > 40 {
			revs = revs[:40]
		}
		added := make([]int, len(revs))
		for i, r := range revs {
			added[i] = int(r % 4) // 0..3; 0 = unmentioned
		}
		db := domain.NewDatabase(domain.BaseScheme())
		d := docWith(added...)
		if err := db.Add(d); err != nil {
			return false
		}
		st := InferDisclosures(db, DefaultOptions())
		if st.Dated+st.Interpolated+st.Fallback != len(added) {
			return false
		}
		for _, e := range d.Errata {
			if e.Disclosed.IsZero() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
