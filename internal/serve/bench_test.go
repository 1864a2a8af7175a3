package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/store"
)

// benchWriter is a no-op ResponseWriter with a preallocated header, so
// the benchmarks measure the handler, not the recorder.
type benchWriter struct {
	header http.Header
	n      int
}

func (w *benchWriter) Header() http.Header         { return w.header }
func (w *benchWriter) WriteHeader(int)             {}
func (w *benchWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

func benchV2Server(b *testing.B) (*Server, string) {
	b.Helper()
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := store.EncodeV2(gt.DB, store.V2Options{Postings: true, Fragments: true})
	if err != nil {
		b.Fatal(err)
	}
	sv, err := store.OpenBytes(enc)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(WithStore(sv), Options{CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	db, err := sv.Database()
	if err != nil {
		b.Fatal(err)
	}
	return srv, db.Unique()[0].Key
}

// BenchmarkServeErratumByKey measures the /v1/errata/{key} handler
// body on the v2 fragment path (the acceptance gate: at most 2
// allocs/op).
func BenchmarkServeErratumByKey(b *testing.B) {
	run := func(b *testing.B, srv *Server, key string) {
		b.Helper()
		req := httptest.NewRequest("GET", "/v1/errata/"+key, nil)
		req.SetPathValue("key", key)
		w := &benchWriter{header: make(http.Header, 4)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.handleErratum(w, req)
		}
	}
	b.Run("stitched", func(b *testing.B) {
		srv, key := benchV2Server(b)
		run(b, srv, key)
	})
}

// BenchmarkServeErrataPage measures the /v1/errata page handler with
// the cache disabled, stitching summary fragments, for three pages of
// 25: the bare query (every erratum matches), a bare title filter, and
// a title filter one erratum matches.
func BenchmarkServeErrataPage(b *testing.B) {
	srv, _ := benchV2Server(b)
	for _, page := range []struct{ name, query string }{
		{"stitched", "limit=25"},
		{"title", "title=cache&limit=25"},
		{"one_match", "title=" + url.QueryEscape(oneMatchTitle(b, srv)) + "&limit=25"},
	} {
		b.Run(page.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", "/v1/errata?"+page.query, nil)
			w := &benchWriter{header: make(http.Header, 4)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.handleErrata(w, req)
			}
		})
	}
}

// oneMatchTitle returns the first title, in ordinal order, that only
// one unique erratum of srv's snapshot contains.
func oneMatchTitle(tb testing.TB, srv *Server) string {
	tb.Helper()
	ix := srv.snap.Load().ix
	for _, e := range ix.Errata() {
		if ix.Query().TitleContains(e.Title).Count() == 1 {
			return e.Title
		}
	}
	tb.Fatal("no title matches exactly one erratum")
	return ""
}

// BenchmarkIngestPost is a layer benchmark, not serving latency: it
// times errserve's ingest step without the HTTP stack, against a warm
// server backed by a memory-mapped v2 store, as layer rows. Each
// iteration replaces one document's live text with its rendering from
// another corpus seed — ingest.Ingester.Apply, then SwapDelta — so every
// Apply changes the corpus and every SwapDelta merges. The apply row
// times Apply alone and the swap_delta row SwapDelta alone. Its two
// sub-rows time SwapDelta's parts on the same snapshots:
// swap_delta.merge the index merge (index.MergeDelta) and
// swap_delta.fragments the fragment rows (store.BuildFragmentsDelta),
// which add up to swap_delta but for the stats count and the install.
// Everything else runs with the timer stopped, so every row walks the
// same sequence of snapshots. scripts/bench_serve.sh reports the rows.
func BenchmarkIngestPost(b *testing.B) {
	texts := append(ingestTexts(b, 2), ingestTexts(b, 3)...)
	for _, layer := range []string{"apply", "swap_delta", "swap_delta.merge", "swap_delta.fragments"} {
		b.Run(layer, func(b *testing.B) {
			srv, ing := mappedIngestServer(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if layer != "apply" {
					b.StopTimer()
				}
				res, err := ing.Apply([]string{texts[i%len(texts)]})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Changed {
					b.Fatal("Apply skipped a revised document")
				}
				if layer == "apply" {
					b.StopTimer()
				}
				prev := srv.snap.Load()
				switch layer {
				case "swap_delta":
					b.StartTimer()
				case "swap_delta.merge":
					b.StartTimer()
					index.MergeDelta(prev.ix, res.DB)
					b.StopTimer()
				case "swap_delta.fragments":
					ix, remap := index.MergeDelta(prev.ix, res.DB)
					b.StartTimer()
					store.BuildFragmentsDelta(prev.frags, ix, remap)
					b.StopTimer()
				}
				srv.SwapDelta(res.DB)
				if layer == "apply" {
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkServeLadder is a layer benchmark, not serving latency: it
// climbs the serve stack one layer at a time for one v2 point lookup
// (/v1/errata/{key}) with the cache off — the bare handler, the handler
// inside instrument, and the full Handler() through the mux — so the
// cost of each wrapper shows as the difference between two rungs.
// scripts/bench_serve.sh gates the full rung's allocs/op against the
// bare rung's. Socket, parsing and transport costs are e2ebench's.
func BenchmarkServeLadder(b *testing.B) {
	srv, key := benchV2Server(b)
	rungs := []struct {
		name string
		h    http.HandlerFunc
	}{
		{"bare", srv.handleErratum},
		{"instrument", srv.instrument("erratum", srv.handleErratum)},
		{"handler", srv.Handler().ServeHTTP},
	}
	for _, rung := range rungs {
		b.Run(rung.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", "/v1/errata/"+key, nil)
			req.SetPathValue("key", key)
			w := &benchWriter{header: make(http.Header, 4)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rung.h(w, req)
			}
		})
	}
}
