package index

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// smallDB builds a two-vendor database exercising every postings
// dimension: categories across kinds, classes, MSRs, flags, duplicate
// cluster keys and fix/workaround variety.
func smallDB(t *testing.T) *domain.Database {
	t.Helper()
	db := domain.NewDatabase(taxonomy.Base())
	docs := []*domain.Document{
		{
			Key: "intel-01", Vendor: domain.Intel, Label: "1", Order: 0,
			Released: time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
			Errata: []*domain.Erratum{
				{
					DocKey: "intel-01", ID: "AAA001", Seq: 1, Key: "k1",
					Title:         "Power state hang",
					WorkaroundCat: domain.WorkaroundBIOS,
					Fix:           domain.FixDone,
					Disclosed:     time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC),
					Ann: domain.Annotation{
						Triggers: []domain.Item{{Category: "Trg_POW_pwc"}, {Category: "Trg_MOP_fen"}},
						Effects:  []domain.Item{{Category: "Eff_HNG_hng"}},
						MSRs:     []string{"MCx_STATUS"},
					},
				},
				{
					DocKey: "intel-01", ID: "AAA002", Seq: 2, Key: "k2",
					Title: "Counter overflow corrupts register",
					Ann: domain.Annotation{
						Triggers:          []domain.Item{{Category: "Trg_FLT_ovf"}},
						Effects:           []domain.Item{{Category: "Eff_CRP_reg"}},
						ComplexConditions: true,
					},
				},
			},
		},
		{
			Key: "intel-02", Vendor: domain.Intel, Label: "2", Order: 1,
			Released: time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
			Errata: []*domain.Erratum{
				// Same cluster key as AAA001: a duplicate occurrence.
				{
					DocKey: "intel-02", ID: "BBB001", Seq: 1, Key: "k1",
					Title: "Power state hang",
					Ann: domain.Annotation{
						Triggers: []domain.Item{{Category: "Trg_POW_pwc"}},
						Effects:  []domain.Item{{Category: "Eff_HNG_hng"}},
					},
				},
			},
		},
		{
			Key: "amd-10h-00", Vendor: domain.AMD, Label: "10h 00", Order: 0,
			Released: time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC),
			Errata: []*domain.Erratum{
				{
					DocKey: "amd-10h-00", ID: "100", Seq: 1, Key: "a1",
					Title: "Simulation-only fence issue",
					Ann: domain.Annotation{
						Triggers:       []domain.Item{{Category: "Trg_MOP_fen"}},
						Contexts:       []domain.Item{{Category: "Ctx_PRV_vmg"}},
						SimulationOnly: true,
					},
				},
			},
		},
	}
	for _, d := range docs {
		if err := db.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

func ids(errata []*domain.Erratum) []string {
	var out []string
	for _, e := range errata {
		out = append(out, e.FullID())
	}
	return out
}

func TestPostingsSortedAndComplete(t *testing.T) {
	db := smallDB(t)
	ix := Build(db)
	if ix.Size() != 4 {
		t.Fatalf("Size = %d, want 4", ix.Size())
	}
	if ix.UniqueCount() != 3 {
		t.Fatalf("UniqueCount = %d, want 3", ix.UniqueCount())
	}
	for name, m := range map[string]map[string]List{
		"byDoc":        ix.byDoc,
		"byCategory":   ix.byCategory,
		"byTriggerCat": ix.byTriggerCat,
		"byClass":      ix.byClass,
		"byKey":        ix.byKey,
		"byMSR":        ix.byMSR,
	} {
		for key, l := range m {
			for i := 1; i < l.Len(); i++ {
				if l.At(i-1) >= l.At(i) {
					t.Errorf("%s[%q] not strictly sorted: %v", name, key, Ints(l))
				}
			}
		}
	}
	if got := listLen(ix.byCategory["Trg_POW_pwc"]); got != 2 {
		t.Errorf("Trg_POW_pwc postings = %d, want 2", got)
	}
	if got := listLen(ix.byClass["Eff_HNG"]); got != 2 {
		t.Errorf("Eff_HNG class postings = %d, want 2", got)
	}
}

func TestQueryOperations(t *testing.T) {
	db := smallDB(t)
	ix := Build(db)

	if got := ids(ix.Query().Vendor(domain.Intel).All()); !reflect.DeepEqual(got,
		[]string{"intel-01/AAA001", "intel-01/AAA002", "intel-02/BBB001"}) {
		t.Errorf("Vendor(Intel).All() = %v", got)
	}
	// Unique collapses the k1 cluster to its earliest occurrence.
	if got := ids(ix.Query().WithCategory("Eff_HNG_hng").Unique()); !reflect.DeepEqual(got,
		[]string{"intel-01/AAA001"}) {
		t.Errorf("WithCategory(Eff_HNG_hng).Unique() = %v", got)
	}
	if got := ix.Query().WithClass("Trg_MOP").Count(); got != 2 {
		t.Errorf("WithClass(Trg_MOP).Count() = %d, want 2", got)
	}
	if got := ix.Query().WithAllTriggers("Trg_POW_pwc", "Trg_MOP_fen").Count(); got != 1 {
		t.Errorf("WithAllTriggers = %d, want 1", got)
	}
	if got := ix.Query().MinTriggers(2).Count(); got != 1 {
		t.Errorf("MinTriggers(2) = %d, want 1", got)
	}
	if got := ix.Query().AnyCategory("Eff_CRP_reg", "Ctx_PRV_vmg").Count(); got != 2 {
		t.Errorf("AnyCategory = %d, want 2", got)
	}
	if got := ix.Query().AnyCategory().Count(); got != 0 {
		t.Errorf("AnyCategory() with no ids = %d, want 0", got)
	}
	if got := ix.Query().WithAllTriggers().Count(); got != ix.UniqueCount() {
		t.Errorf("WithAllTriggers() with no ids = %d, want %d (no-op)", got, ix.UniqueCount())
	}
	if got := ix.Query().WithCategory("No_Such_cat").All(); got != nil {
		t.Errorf("unknown category matched %v", ids(got))
	}
	if got := ix.Query().Complex().Count(); got != 1 {
		t.Errorf("Complex = %d, want 1", got)
	}
	if got := ix.Query().SimulationOnly().Count(); got != 1 {
		t.Errorf("SimulationOnly = %d, want 1", got)
	}
	if got := ix.Query().ObservableIn("MCx_STATUS").Count(); got != 1 {
		t.Errorf("ObservableIn = %d, want 1", got)
	}
	if got := ix.Query().Workaround(domain.WorkaroundBIOS).Count(); got != 1 {
		t.Errorf("Workaround(BIOS) = %d, want 1", got)
	}
	if got := ix.Query().Fix(domain.FixDone).Count(); got != 1 {
		t.Errorf("Fix(Done) = %d, want 1", got)
	}
	from := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)
	if got := ix.Query().DisclosedBetween(from, to).Count(); got != 1 {
		t.Errorf("DisclosedBetween = %d, want 1", got)
	}
	if got := ix.Query().TitleContains("POWER STATE").Count(); got != 1 {
		t.Errorf("TitleContains = %d, want 1", got)
	}
}

func TestQueryMatchesCoreScan(t *testing.T) {
	db := smallDB(t)
	ix := Build(db)
	// All() with no filters must be db.Errata() verbatim; Unique()
	// likewise — the ordering contract the facade relies on.
	if got, want := ix.Query().All(), db.Errata(); !reflect.DeepEqual(got, want) {
		t.Errorf("All() = %v, want %v", ids(got), ids(want))
	}
	if got, want := ix.Query().Unique(), db.Unique(); !reflect.DeepEqual(got, want) {
		t.Errorf("Unique() = %v, want %v", ids(got), ids(want))
	}
}

func TestByKey(t *testing.T) {
	ix := Build(smallDB(t))
	if got := ids(ix.ByKey("k1")); !reflect.DeepEqual(got, []string{"intel-01/AAA001", "intel-02/BBB001"}) {
		t.Errorf("ByKey(k1) = %v", got)
	}
	if got := ix.ByKey("nope"); len(got) != 0 {
		t.Errorf("ByKey(nope) = %v", ids(got))
	}
}

func TestIntersectUnion(t *testing.T) {
	cases := []struct{ a, b, inter, uni []int }{
		{[]int{1, 3, 5}, []int{2, 3, 4, 5}, []int{3, 5}, []int{1, 2, 3, 4, 5}},
		{[]int{}, []int{1, 2}, []int{}, []int{1, 2}},
		{[]int{7}, []int{7}, []int{7}, []int{7}},
		{[]int{1, 2}, []int{3, 4}, []int{}, []int{1, 2, 3, 4}},
	}
	for _, c := range cases {
		if got := intersect(c.a, c.b); !sameInts(got, c.inter) {
			t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.inter)
		}
		if got := union(c.a, c.b); !sameInts(got, c.uni) {
			t.Errorf("union(%v,%v) = %v, want %v", c.a, c.b, got, c.uni)
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
