package rememberr

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/queryref"
)

// queryFilters is the filter vocabulary for the reference matrix:
// every Query method at least once, with operands that hit the
// synthetic corpus, each paired with the /v1/errata parameters that
// README's HTTP contract gives for the same filter.
var queryFilters = []struct {
	name   string
	params string
	apply  func(*Query) *Query
}{
	{"vendor-intel", "vendor=Intel", func(q *Query) *Query { return q.Vendor(Intel) }},
	{"vendor-amd", "vendor=AMD", func(q *Query) *Query { return q.Vendor(AMD) }},
	{"doc-intel-06", "doc=intel-06", func(q *Query) *Query { return q.InDocument("intel-06") }},
	{"cat-pow-pwc", "category=Trg_POW_pwc", func(q *Query) *Query { return q.WithCategory("Trg_POW_pwc") }},
	{"cat-hng", "category=Eff_HNG_hng", func(q *Query) *Query { return q.WithCategory("Eff_HNG_hng") }},
	{"cat-unknown", "category=Trg_XXX_xxx", func(q *Query) *Query { return q.WithCategory("Trg_XXX_xxx") }},
	{"any-hng-crh", "any_category=Eff_HNG_hng,Eff_HNG_crh", func(q *Query) *Query { return q.AnyCategory("Eff_HNG_hng", "Eff_HNG_crh") }},
	{"class-trg-pow", "class=Trg_POW", func(q *Query) *Query { return q.WithClass("Trg_POW") }},
	{"class-eff-hng", "class=Eff_HNG", func(q *Query) *Query { return q.WithClass("Eff_HNG") }},
	{"all-triggers", "trigger=Trg_POW_pwc&trigger=Trg_MOP_fen", func(q *Query) *Query { return q.WithAllTriggers("Trg_POW_pwc", "Trg_MOP_fen") }},
	{"min-triggers-2", "min_triggers=2", func(q *Query) *Query { return q.MinTriggers(2) }},
	{"workaround-bios", "workaround=BIOS", func(q *Query) *Query { return q.Workaround(WorkaroundCategory(1)) }},
	{"fix-none", "fix=NoFixPlanned", func(q *Query) *Query { return q.Fix(FixStatus(0)) }},
	{"complex", "complex=true", func(q *Query) *Query { return q.Complex() }},
	{"sim-only", "sim_only=true", func(q *Query) *Query { return q.SimulationOnly() }},
	{"disclosed-2010s", "disclosed_from=2010-01-01&disclosed_to=2016-01-01", func(q *Query) *Query {
		return q.DisclosedBetween(
			time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	}},
	{"title-the", "title=the", func(q *Query) *Query { return q.TitleContains("the") }},
	{"msr-mcx", "msr=MCx_STATUS", func(q *Query) *Query { return q.ObservableIn("MCx_STATUS") }},
}

func sameErrata(a, b []*Erratum) bool {
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

// checkReference runs one filter combination through the root Query
// and through the reference scan, and requires identical result slices
// (same pointers, same order). Each filter's parameters are parsed on
// their own, since a combination such as two vendors is not one valid
// query string, and the reference answer is the entries every filter
// matches.
func checkReference(t *testing.T, db *Database, label string, combo []int) {
	t.Helper()
	q := db.Query()
	name := label
	var refs []*queryref.Query
	for _, fi := range combo {
		q = queryFilters[fi].apply(q)
		name += "+" + queryFilters[fi].name
		ref, err := queryref.Parse(queryFilters[fi].params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refs = append(refs, ref)
	}
	reference := func(unique bool) []*Erratum {
		out := refs[0].Match(db.Core(), unique)
		for _, ref := range refs[1:] {
			keep := make(map[*Erratum]bool)
			for _, e := range ref.Match(db.Core(), unique) {
				keep[e] = true
			}
			out = slices.DeleteFunc(out, func(e *Erratum) bool { return !keep[e] })
		}
		return out
	}
	if got, want := q.All(), reference(false); !sameErrata(got, want) {
		t.Errorf("%s: All() %d != reference %d", name, len(got), len(want))
	}
	if got, want := q.Unique(), reference(true); !sameErrata(got, want) {
		t.Errorf("%s: Unique() %d != reference %d", name, len(got), len(want))
	}
}

// TestQueryMatchesReference holds the root Query to the reference scan
// (internal/queryref) for a generated matrix of filter combinations:
// every single filter, every pair, and a sample of triples, across six
// corpus seeds plus the fully built default database (the only one
// carrying disclosure dates).
func TestQueryMatchesReference(t *testing.T) {
	dbs := map[string]*Database{"built-seed1": FromCore(testDB(t).Core())}
	for seed := int64(1); seed <= 6; seed++ {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		dbs[fmt.Sprintf("corpus-seed%d", seed)] = FromCore(gt.DB)
	}
	for label, db := range dbs {
		for i := range queryFilters {
			checkReference(t, db, label, []int{i})
		}
		for i := range queryFilters {
			for j := i + 1; j < len(queryFilters); j++ {
				checkReference(t, db, label, []int{i, j})
			}
		}
		// Triples: a rolling sample rather than the full cube.
		for i := range queryFilters {
			j := (i + 5) % len(queryFilters)
			k := (i + 11) % len(queryFilters)
			if i != j && j != k && i != k {
				checkReference(t, db, label, []int{i, j, k})
			}
		}
	}
}

// TestQueryIndexedPinnedCounts re-pins the headline query counts from
// rememberr_test on a database whose index was built explicitly, so a
// drift shared by the Query and the reference scan cannot hide behind
// TestQueryMatchesReference.
func TestQueryIndexedPinnedCounts(t *testing.T) {
	db := FromCore(testDB(t).Core())
	db.BuildIndex()
	if got := db.Query().Count(); got != db.Core().ComputeStats().Unique {
		t.Errorf("unfiltered indexed Count = %d, want %d", got, db.Core().ComputeStats().Unique)
	}
	if got := len(db.Query().Vendor(Intel).All()); got != 2057 {
		t.Errorf("indexed Vendor(Intel).All() = %d, want 2057", got)
	}
	if got := db.Query().SimulationOnly().Vendor(AMD).Count(); got != 5 {
		t.Errorf("indexed SimulationOnly+AMD = %d, want 5", got)
	}
	if got := db.Query().SimulationOnly().Vendor(Intel).Count(); got != 1 {
		t.Errorf("indexed SimulationOnly+Intel = %d, want 1", got)
	}
	if db.Query().InDocument("intel-12").Vendor(AMD).Count() != 0 {
		t.Error("indexed contradictory filters matched")
	}
}

// TestQueryReuseContract pins the documented reuse semantics: queries
// are immutable, terminal operations are repeatable, and branching a
// base query never leaks filters between branches — the guard against
// a Query reused after Unique() accumulating stale filters.
func TestQueryReuseContract(t *testing.T) {
	db := testDB(t)

	base := db.Query().Vendor(Intel)
	before := base.Count()

	// Terminal ops are repeatable and side-effect free.
	if again := base.Count(); again != before {
		t.Fatalf("repeated Count differs: %d then %d", before, again)
	}
	u1 := base.Unique()
	u2 := base.Unique()
	if !sameErrata(u1, u2) {
		t.Fatal("repeated Unique() returned different results")
	}

	// Branching after a terminal op must not mutate the base: the two
	// derived queries see exactly one extra filter each, and the base
	// keeps its original result set.
	hangs := base.WithCategory("Eff_HNG_hng")
	crashes := base.WithCategory("Eff_HNG_crh")
	if len(base.steps) != 1 {
		t.Fatalf("base accumulated %d filters, want 1", len(base.steps))
	}
	if len(hangs.steps) != 2 || len(crashes.steps) != 2 {
		t.Fatalf("branches have %d/%d filters, want 2/2", len(hangs.steps), len(crashes.steps))
	}
	if got := base.Count(); got != before {
		t.Fatalf("base Count changed after branching: %d, want %d", got, before)
	}
	if hangs.Count() >= before || crashes.Count() >= before {
		t.Fatal("branch filters did not apply")
	}

	// Filters added after a terminal op compose on the derived query
	// only (one-shot building is not required).
	narrowed := hangs.MinTriggers(2)
	if narrowed.Count() > hangs.Count() {
		t.Fatal("narrowing increased the result set")
	}
	if len(hangs.steps) != 2 {
		t.Fatal("narrowing mutated its receiver")
	}

	// The same contract holds on a database whose index was built
	// explicitly before the first query.
	idb := FromCore(db.Core())
	idb.BuildIndex()
	ibase := idb.Query().Vendor(Intel)
	if got := ibase.Count(); got != before {
		t.Fatalf("indexed base Count = %d, want %d", got, before)
	}
	_ = ibase.WithCategory("Eff_HNG_hng").Unique()
	if got := ibase.Count(); got != before {
		t.Fatalf("indexed base mutated by branch: %d, want %d", got, before)
	}
}
