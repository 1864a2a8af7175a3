package rememberr

// Benchmarks of the fluent Query on the default corpus: a
// representative mix of narrow and broad filter combinations, and the
// index build the first query on a database pays.

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

func BenchmarkBuildIndex(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromCore(db.Core()).BuildIndex()
	}
}
