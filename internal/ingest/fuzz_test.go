package ingest

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/pipeline"
	"repro/internal/specdoc"
	"repro/internal/store"
)

// fuzzPool holds a small pool of ingestible document texts, including
// a revised (last-erratum-dropped) variant of each multi-entry document
// so the fuzzer can exercise replacement, relabeling and Order shifts,
// not just appends.
var fuzzPool struct {
	once  sync.Once
	texts []string
	cache *pipeline.MemCache
}

func fuzzTexts(tb testing.TB) []string {
	fuzzPool.once.Do(func() {
		gt, err := corpus.Generate(1)
		if err != nil {
			tb.Fatalf("corpus.Generate: %v", err)
		}
		docs := gt.DB.Documents()
		if len(docs) > 10 {
			docs = docs[:10]
		}
		for _, d := range docs {
			fuzzPool.texts = append(fuzzPool.texts, specdoc.Write(d, specdoc.WriteOptions{}))
			if len(d.Errata) > 1 {
				trimmed := *d
				trimmed.Errata = d.Errata[:len(d.Errata)-1]
				fuzzPool.texts = append(fuzzPool.texts, specdoc.Write(&trimmed, specdoc.WriteOptions{}))
			}
		}
		fuzzPool.cache = pipeline.NewMemCache()
	})
	return fuzzPool.texts
}

// FuzzDeltaMerge is the differential fuzz target of the streaming-ingest
// path. The input bytes drive an arbitrary ingest schedule over a pool
// of real rendered documents and their revised variants: each byte
// either appends one pool document to the pending batch or flushes the
// batch through Ingester.Apply. After every flush the index merged along
// the published snapshots (a chain of index.MergeDelta calls, as
// serve.SwapDelta runs them) must dump identically
// to a cold index.Build over the same database, the stats it counts
// must equal db.ComputeStats(), every entry's key must
// equal the naiveKeys oracle's, and a key present in two consecutive
// generations must name the same normalized title in both. After the
// last flush the database must be byte-identical to a cold Build over
// the union arrival sequence. Any divergence — a stale postings list, a
// missed relabel clone, an Order shift the merge didn't see, a key that
// moved to another title — fails here.
func FuzzDeltaMerge(f *testing.F) {
	f.Add([]byte{0, 1, 0x80, 2, 3, 0x80})
	f.Add([]byte{5, 0x80, 5, 0x80})                   // idempotent re-ingest
	f.Add([]byte{0, 0x80, 1, 0x80, 2, 0x80, 3, 0x80}) // one doc per batch
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0x80}) // reverse arrival
	f.Add([]byte{1, 2, 0x80, 1, 0x80})                // revise after ingest

	f.Fuzz(func(t *testing.T, ops []byte) {
		texts := fuzzTexts(t)
		if len(ops) > 24 {
			ops = ops[:24]
		}
		in := New(Options{Parallelism: 1, Cache: fuzzPool.cache})
		_, ix := in.Snapshot()
		titles := map[string]string{} // previous generation's key -> normalized title
		var batch, arrived []string
		flush := func() {
			if len(batch) == 0 {
				return
			}
			var res *Result
			res, ix = applyMerged(t, in, ix, batch)
			arrived = append(arrived, batch...)
			batch = nil
			if !res.Changed {
				return
			}
			cold := index.Build(res.DB)
			if got, want := ix.DebugDump(), cold.DebugDump(); !bytes.Equal(got, want) {
				t.Fatalf("merged index diverged from cold Build:\n%s", firstDiff(got, want))
			}
			if got, want := ix.Stats(), res.DB.ComputeStats(); got != want {
				t.Fatalf("merged index stats %+v, ComputeStats %+v", got, want)
			}
			for e, want := range naiveKeys(res.DB) {
				if e.Key != want {
					t.Fatalf("entry %s has key %q, the naive labeller gives %q", e.FullID(), e.Key, want)
				}
			}
			cur := keyTitles(t, res.DB)
			for k, n := range cur {
				if prev, ok := titles[k]; ok && prev != n {
					t.Fatalf("key %s named %q and now names %q", k, prev, n)
				}
			}
			titles = cur
		}
		for _, op := range ops {
			if op&0x80 != 0 {
				flush()
				continue
			}
			batch = append(batch, texts[int(op)%len(texts)])
		}
		flush()
		if len(arrived) == 0 {
			return
		}
		wantDB, _, err := Build(nil, arrived, Options{Parallelism: 1, Cache: fuzzPool.cache})
		if err != nil {
			t.Fatalf("cold Build: %v", err)
		}
		db, _ := in.Snapshot()
		got, err := store.Encode(db)
		if err != nil {
			t.Fatalf("store.Encode: %v", err)
		}
		want, err := store.Encode(wantDB)
		if err != nil {
			t.Fatalf("store.Encode: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("converged database diverged from cold Build over the union")
		}
	})
}
