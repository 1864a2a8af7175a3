package ingest

import (
	"testing"

	"repro/internal/index"
	"repro/internal/specdoc"
)

// BenchmarkIngestApply measures the steady-state cost of ingesting one
// arriving document into a warm corpus via the delta path: Apply
// (parse + classify + union dedup + copy-on-write materialization; the
// index merge runs in serve.SwapDelta), alternating a document between its full and
// revised rendering so every iteration really changes the corpus.
func BenchmarkIngestApply(b *testing.B) {
	texts := seedTexts(b, 1)
	in := New(Options{Parallelism: 1})
	res, err := in.Apply(texts)
	if err != nil {
		b.Fatal(err)
	}
	docs := res.DB.Documents()
	var victim = docs[0]
	for _, d := range docs {
		if len(d.Errata) > 1 {
			victim = d
			break
		}
	}
	trimmed := *victim
	trimmed.Errata = victim.Errata[:len(victim.Errata)-1]
	variants := []string{
		specdoc.Write(victim, specdoc.WriteOptions{}),
		specdoc.Write(&trimmed, specdoc.WriteOptions{}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Apply([]string{variants[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdRebuild is the baseline BenchmarkIngestApply replaces:
// reacting to one changed document by re-ingesting the whole corpus
// from scratch and rebuilding the full index.
func BenchmarkColdRebuild(b *testing.B) {
	texts := seedTexts(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _, err := Build(nil, texts, Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = db
	}
}

// BenchmarkMergeDelta isolates the index half: merging into a warm
// index versus index.Build from scratch. The unchanged row merges the
// database into its own index (nothing fresh, nothing moves); the
// one_doc row merges the revision of one document from another corpus
// seed — the document in the middle of the database order, so about
// half of the ordinals move — which is what a POST pays.
func BenchmarkMergeDelta(b *testing.B) {
	in := New(Options{Parallelism: 1})
	if _, err := in.Apply(seedTexts(b, 1)); err != nil {
		b.Fatal(err)
	}
	db, prev := in.Snapshot()
	docs := db.Documents()
	mid := docs[len(docs)/2].Key
	var revision string
	for _, text := range seedTexts(b, 2) {
		if doc, _, err := specdoc.Parse(text); err == nil && doc.Key == mid {
			revision = text
		}
	}
	res, err := in.Apply([]string{revision})
	if err != nil || !res.Changed {
		b.Fatalf("Apply of the revision of %s: changed %v, %v", mid, res != nil && res.Changed, err)
	}
	b.Run("unchanged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.MergeDelta(prev, db)
		}
	})
	b.Run("one_doc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.MergeDelta(prev, res.DB)
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.Build(db)
		}
	})
}
