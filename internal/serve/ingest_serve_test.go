package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/specdoc"
	"repro/internal/store"
	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// ingestTexts renders one corpus seed into document texts in
// deterministic order.
func ingestTexts(t testing.TB, seed int64) []string {
	t.Helper()
	gt, err := corpus.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	rendered := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	keys := make([]string, 0, len(rendered))
	for k := range rendered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	texts := make([]string, 0, len(keys))
	for _, k := range keys {
		texts = append(texts, rendered[k])
	}
	return texts
}

// ingestingServer wires an Ingester to a Server the way errserve does:
// Ingest applies each document and installs it with SwapDelta, and,
// when source is non-nil, the Reloader installs source's database with
// Swap and then resets the ingester to it. The server runs both in its
// commit order, so neither takes a lock of its own. The returned
// function reads the current ingester; call it only while no reload
// runs.
func ingestingServer(initial *domain.Database, source func(context.Context) (*domain.Database, error)) (*Server, func() *ingest.Ingester) {
	ing := ingest.NewFrom(initial, ingest.Options{Parallelism: 1})
	var srv *Server
	opts := Options{CacheSize: -1, Ingest: func(_ context.Context, text string) (IngestSummary, error) {
		res, err := ing.Apply([]string{text})
		if err != nil {
			return IngestSummary{}, err
		}
		sum := IngestSummary{Documents: res.Docs, Errata: res.Errata, Skipped: res.Skipped}
		if res.Changed {
			sum.Generation = srv.SwapDelta(res.DB)
		} else {
			sum.Generation = srv.Generation()
		}
		return sum, nil
	}}
	if source != nil {
		opts.Reloader = func(ctx context.Context) (uint64, error) {
			db, err := source(ctx)
			if err != nil {
				return 0, err
			}
			gen := srv.Swap(db)
			ing = ingest.NewFrom(db, ingest.Options{Parallelism: 1})
			return gen, nil
		}
	}
	srv = newDBServer(initial, opts)
	return srv, func() *ingest.Ingester { return ing }
}

// postIngest pushes one document through POST /v1/admin/ingest.
func postIngest(t *testing.T, srv *Server, text string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/admin/ingest", strings.NewReader(text))
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// stripGen removes the generation field from a JSON body so responses
// from servers at different generations can be compared for content.
func stripGen(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %q: %v", truncate(body), err)
	}
	delete(m, "generation")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestIngestEndpointNotConfigured pins the 501 contract.
func TestIngestEndpointNotConfigured(t *testing.T) {
	db := domain.NewDatabase(taxonomy.Base())
	srv := newDBServer(db, Options{})
	code, body := postIngest(t, srv, "anything")
	if code != 501 {
		t.Fatalf("POST /v1/admin/ingest without Ingest: %d %s, want 501", code, truncate(body))
	}
}

// TestIngestEndpointRejectsBadDocument pins the 400 contract: an
// unparseable body leaves the served snapshot untouched.
func TestIngestEndpointRejectsBadDocument(t *testing.T) {
	srv, _ := ingestingServer(domain.NewDatabase(taxonomy.Base()), nil)
	gen := srv.Generation()
	code, body := postIngest(t, srv, "not a specification update\n")
	if code != 400 {
		t.Fatalf("bad document: %d %s, want 400", code, truncate(body))
	}
	if srv.Generation() != gen {
		t.Fatalf("bad document advanced the generation")
	}
}

// TestIngestEndpointRejectsOversizeBody pins the 413 contract: a body
// one byte over maxIngestBytes is refused as too large, not as a bad
// request, counts as an error, and leaves the snapshot untouched.
func TestIngestEndpointRejectsOversizeBody(t *testing.T) {
	srv, _ := ingestingServer(domain.NewDatabase(taxonomy.Base()), nil)
	gen := srv.Generation()
	code, body := postIngest(t, srv, strings.Repeat("x", maxIngestBytes+1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d %s, want 413", code, truncate(body))
	}
	if got := srv.Metrics().Endpoints["admin_ingest"].Errors; got != 1 {
		t.Fatalf("admin_ingest errors after oversize body = %d, want 1", got)
	}
	if srv.Generation() != gen {
		t.Fatalf("oversize body advanced the generation")
	}
}

// TestIngestEndpointEquivalence is the serving half of the convergence
// contract: a server fed document-by-document through POST
// /v1/admin/ingest (delta merges and generation bumps all the way)
// answers every matrix query identically to a server cold-built over
// the union corpus.
func TestIngestEndpointEquivalence(t *testing.T) {
	texts := ingestTexts(t, 1)
	unionDB, _, err := ingest.Build(nil, texts, ingest.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold := newDBServer(unionDB, Options{CacheSize: -1})
	srv, _ := ingestingServer(domain.NewDatabase(taxonomy.Base()), nil)
	for i, text := range texts {
		code, body := postIngest(t, srv, text)
		if code != 200 {
			t.Fatalf("ingest %d: %d %s", i, code, truncate(body))
		}
		var sum struct {
			Status string `json:"status"`
			IngestSummary
		}
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if sum.Status != "ok" || sum.Documents != 1 || sum.Generation != uint64(i+2) {
			t.Fatalf("ingest %d: %+v, want ok/1 docs/gen %d", i, sum, i+2)
		}
	}
	// Re-ingesting the first document is an idempotent no-op.
	gen := srv.Generation()
	code, body := postIngest(t, srv, texts[0])
	var sum struct {
		IngestSummary
	}
	if code != 200 || json.Unmarshal(body, &sum) != nil || sum.Skipped != 1 || sum.Generation != gen {
		t.Fatalf("re-ingest: %d %s", code, truncate(body))
	}

	coldH, gotH := cold.Handler(), srv.Handler()
	queries := []string{
		"/v1/errata",
		"/v1/errata?unique=false&limit=1000",
		"/v1/errata?vendor=Intel",
		"/v1/errata?vendor=AMD&unique=false",
		"/v1/errata?min_triggers=1&limit=7&offset=3",
		"/v1/stats",
	}
	// Point lookups for a sample of keys from the union database.
	n := 0
	for _, e := range unionDB.Errata() {
		if e.Key != "" && n < 8 {
			queries = append(queries, "/v1/errata/"+e.Key)
			n++
		}
	}
	for _, url := range queries {
		wantCode, want := get(t, coldH, url)
		gotCode, got := get(t, gotH, url)
		if gotCode != wantCode || stripGen(t, got) != stripGen(t, want) {
			t.Fatalf("%s: ingested %d %s != cold %d %s", url, gotCode, truncate(got), wantCode, truncate(want))
		}
	}
}

// TestIngestUnderSwapLoad is the soak of the streaming-ingest tier: a
// writer streams documents through the ingest path (Apply + SwapDelta)
// while reader goroutines hammer queries and
// point lookups across the swaps. Run under -race in CI. Readers assert
// generation consistency two ways: a response pair observed at one
// generation must agree on the entry count, and any generation's count
// must match what the writer recorded when installing it.
func TestIngestUnderSwapLoad(t *testing.T) {
	texts := ingestTexts(t, 3)
	half := len(texts) / 2
	initial, _, err := ingest.Build(nil, texts[:half], ingest.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}

	ing := ingest.NewFrom(initial, ingest.Options{Parallelism: 2})
	srv := newDBServer(initial, Options{CacheSize: 64})
	// entriesAt records gen -> total entry count, written by the writer.
	// A reader can observe a generation before the writer records it
	// (the snapshot pointer flips inside SwapDelta, the record happens
	// after it returns), so lookups tolerate a miss — but a present
	// entry must match exactly.
	var entriesAt sync.Map
	entriesAt.Store(srv.Generation(), len(initial.Errata()))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: one document per swap
		defer wg.Done()
		defer close(done)
		for _, text := range texts[half:] {
			res, err := ing.Apply([]string{text})
			if err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
			gen := srv.SwapDelta(res.DB)
			entriesAt.Store(gen, len(res.DB.Errata()))
		}
	}()

	h := srv.Handler()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			urls := []string{
				"/healthz",
				"/v1/errata?unique=false&limit=1",
				"/v1/errata?vendor=Intel&unique=false&limit=1",
				"/v1/errata?vendor=AMD&unique=false&limit=1",
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				var hz struct {
					Errata     int    `json:"errata"`
					Generation uint64 `json:"generation"`
				}
				code, body := get(t, h, "/healthz")
				if code != 200 || json.Unmarshal(body, &hz) != nil {
					t.Errorf("healthz: %d %s", code, truncate(body))
					return
				}
				if want, ok := entriesAt.Load(hz.Generation); ok && want.(int) != hz.Errata {
					t.Errorf("gen %d: healthz reports %d entries, writer installed %d",
						hz.Generation, hz.Errata, want.(int))
					return
				}
				var q struct {
					Total      int    `json:"total"`
					Generation uint64 `json:"generation"`
				}
				code, body = get(t, h, urls[1+i%3])
				if code != 200 || json.Unmarshal(body, &q) != nil {
					t.Errorf("query: %d %s", code, truncate(body))
					return
				}
				if q.Generation == hz.Generation && strings.Contains(urls[1+i%3], "unique=false&limit=1") &&
					!strings.Contains(urls[1+i%3], "vendor") && q.Total != hz.Errata {
					t.Errorf("gen %d: query total %d != healthz %d", q.Generation, q.Total, hz.Errata)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// The soak must end converged: the final snapshot equals a cold
	// build over the whole corpus.
	unionDB, _, err := ingest.Build(nil, texts, ingest.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold := newDBServer(unionDB, Options{CacheSize: -1}).Handler()
	for _, url := range []string{"/v1/errata?unique=false&limit=1000", "/v1/stats"} {
		wantCode, want := get(t, cold, url)
		gotCode, got := get(t, h, url)
		if gotCode != wantCode || stripGen(t, got) != stripGen(t, want) {
			t.Fatalf("post-soak %s: %d %s != cold %d %s", url, gotCode, truncate(got), wantCode, truncate(want))
		}
	}
	if got, want := srv.Generation(), uint64(1+len(texts)-half); got != want {
		t.Fatalf("final generation %d, want %d", got, want)
	}
}

// mappedIngestServer serves corpus seed 1 from a memory-mapped v2 store
// with postings, so the served index starts as index.FromLists over the
// mapping, and seeds an ingester with the database the server serves,
// as errserve does.
func mappedIngestServer(t testing.TB) (*Server, *ingest.Ingester) {
	t.Helper()
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.v2")
	if err := store.SaveFormat(gt.DB, path, "v2"); err != nil {
		t.Fatal(err)
	}
	sv := openMapped(t, path)
	defer sv.Close() // the snapshot holds its own region reference
	if sv.IndexLists() == nil {
		t.Fatal("v2 store has no postings; the first merge would not start from index.FromLists")
	}
	db, err := sv.Database()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(WithStore(sv), Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return srv, ingest.NewFrom(db, ingest.Options{Parallelism: 1})
}

// TestSwapDeltaIndexMatchesBuild is the index half of the convergence
// contract on the serving side, where the only delta merge of an ingest
// runs: starting from a mapped store's postings and fragment rows, the
// index SwapDelta merges after every revised document dumps identically
// to a cold index.Build over the installed database, the stats equal
// db.ComputeStats(), and every fragment row is byte-equal to a fresh
// store.BuildFragments over the installed database.
func TestSwapDeltaIndexMatchesBuild(t *testing.T) {
	srv, ing := mappedIngestServer(t)
	texts := append(ingestTexts(t, 2), ingestTexts(t, 3)...)
	for i, text := range texts {
		res, err := ing.Apply([]string{text})
		if err != nil {
			t.Fatalf("document %d: Apply: %v", i, err)
		}
		if !res.Changed {
			t.Fatalf("document %d: Apply skipped a revised document", i)
		}
		srv.SwapDelta(res.DB)
		snap := srv.snap.Load()
		if snap.db != res.DB {
			t.Fatalf("document %d: SwapDelta installed a different database", i)
		}
		if got, want := snap.ix.DebugDump(), index.Build(snap.db).DebugDump(); !bytes.Equal(got, want) {
			t.Fatalf("document %d: merged index differs from index.Build (%d vs %d dump bytes)", i, len(got), len(want))
		}
		if got, want := snap.stats, snap.db.ComputeStats(); got != want {
			t.Fatalf("document %d: stats %+v, ComputeStats %+v", i, got, want)
		}
		cold, err := store.BuildFragments(snap.db)
		if err != nil {
			t.Fatalf("document %d: BuildFragments: %v", i, err)
		}
		if got, want := snap.frags.Len(), cold.Len(); got != want {
			t.Fatalf("document %d: %d fragment rows, a full build has %d", i, got, want)
		}
		for ord := 0; ord < cold.Len(); ord++ {
			if !bytes.Equal(snap.frags.Detail(ord), cold.Detail(ord)) ||
				!bytes.Equal(snap.frags.Summary(ord), cold.Summary(ord)) ||
				!bytes.Equal(snap.frags.KeyJSON(ord), cold.KeyJSON(ord)) {
				t.Fatalf("document %d: fragment row %d (%s) differs from a full build", i, ord, snap.ix.Entry(ord).FullID())
			}
		}
	}
}
