package rememberr

// Benchmarks of the fluent Query on the default corpus: a
// representative mix of narrow and broad filter combinations, a bare
// title scan with its allocation gate, and the index build the first
// query on a database pays.

import "testing"

// benchQueries builds the shared workload against the given facade.
func benchQueries(db *Database) []*Query {
	return []*Query{
		db.Query().Vendor(Intel).WithClass("Trg_POW").MinTriggers(2),
		db.Query().WithCategory("Eff_HNG_hng"),
		db.Query().Vendor(AMD).SimulationOnly(),
		db.Query().AnyCategory("Eff_HNG_hng", "Eff_HNG_crh").Workaround(WorkaroundCategory(0)),
		db.Query().ObservableIn("MCx_STATUS").Fix(FixStatus(0)),
	}
}

func BenchmarkQueryIndexed(b *testing.B) {
	db := FromCore(benchDB(b).Core())
	db.BuildIndex()
	queries := benchQueries(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if len(q.Unique()) == 0 && len(q.All()) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkQueryTitle is a layer benchmark, not serving latency: one
// bare title substring filter, the residual predicate no postings list
// answers, scanned over the default corpus's lowered-title table.
func BenchmarkQueryTitle(b *testing.B) {
	db := FromCore(benchDB(b).Core())
	db.BuildIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.Query().TitleContains("cache").Unique()) == 0 {
			b.Fatal("empty result")
		}
	}
}

// TestTitleScanAllocs gates the title scan's allocations: a bare
// TitleContains(...).Unique() over the default corpus allocates a
// constant handful of slices, never one string per title.
func TestTitleScanAllocs(t *testing.T) {
	db := FromCore(testDB(t).Core())
	db.BuildIndex()
	got := testing.AllocsPerRun(20, func() {
		if len(db.Query().TitleContains("cache").Unique()) == 0 {
			t.Fatal("empty result")
		}
	})
	if got > 16 {
		t.Fatalf("bare title query allocates %v per run, want <= 16", got)
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromCore(db.Core()).BuildIndex()
	}
}
