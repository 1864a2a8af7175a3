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

// BenchmarkMergeDelta isolates the index half: merging one changed
// document into a warm index versus index.Build from scratch.
func BenchmarkMergeDelta(b *testing.B) {
	texts := seedTexts(b, 1)
	in := New(Options{Parallelism: 1})
	if _, err := in.Apply(texts); err != nil {
		b.Fatal(err)
	}
	db, prev := in.Snapshot()
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.MergeDelta(prev, db)
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.Build(db)
		}
	})
}
