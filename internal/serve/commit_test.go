package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/pkg/domain"
)

// assertServes checks that srv serves exactly db: /v1/stats and every
// document's ?doc= page answer as a heap server over db does,
// generation aside.
func assertServes(t *testing.T, srv *Server, db *domain.Database) {
	t.Helper()
	urls := []string{"/v1/stats"}
	for _, k := range docKeys(db) {
		urls = append(urls, docPage(k))
	}
	want, got := newDBServer(db, Options{CacheSize: -1}).Handler(), srv.Handler()
	for _, u := range urls {
		wantCode, wantBody := get(t, want, u)
		gotCode, gotBody := get(t, got, u)
		if gotCode != wantCode || stripGen(t, gotBody) != stripGen(t, wantBody) {
			t.Fatalf("%s: served %d %s, want %d %s",
				u, gotCode, truncate(gotBody), wantCode, truncate(wantBody))
		}
	}
}

// docKeys returns db's document keys in sorted order.
func docKeys(db *domain.Database) []string {
	keys := make([]string, 0, len(db.Docs))
	for k := range db.Docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// docPage is the URL of every entry of one document.
func docPage(doc string) string {
	return "/v1/errata?doc=" + url.QueryEscape(doc) + "&unique=false&limit=1000"
}

// TestIngestDuringReload pins the commit order of an ingest that
// arrives while a reload's callback runs: the POST waits until the
// reload has installed its snapshot and reset the ingester, then lands
// on top of it, so it answers the later generation and the served
// state is the ingester's. Were the ingester reset outside the
// server's commit order, the POST would land on the old snapshot, the
// reload would then install a snapshot without it, and /v1/stats would
// disagree with the ingester (1128 vs 1107 unique errata).
func TestIngestDuringReload(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	// A seed-2 rendering of a document the seed-1 corpus already holds:
	// a revision that changes the served statistics.
	revised := ingestTexts(t, 2)[0]
	entered, release := make(chan struct{}), make(chan struct{})
	srv, ing := ingestingServer(gt.DB, func(context.Context) (*domain.Database, error) {
		close(entered)
		<-release
		return gt.DB, nil
	})

	reloaded := make(chan uint64, 1)
	go func() {
		gen, err := srv.Reload(context.Background())
		if err != nil {
			t.Errorf("reload: %v", err)
		}
		reloaded <- gen
	}()
	<-entered
	type answer struct {
		code int
		body []byte
	}
	posted := make(chan answer, 1)
	go func() {
		code, body := postIngest(t, srv, revised)
		posted <- answer{code, body}
	}()
	select {
	case a := <-posted:
		t.Fatalf("POST answered %d %s while the reload was still running", a.code, truncate(a.body))
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	reloadGen := <-reloaded
	a := <-posted
	var sum IngestSummary
	if err := json.Unmarshal(a.body, &sum); err != nil || a.code != 200 || sum.Documents != 1 {
		t.Fatalf("POST during reload = %d %s, want 200 with one document", a.code, truncate(a.body))
	}
	if sum.Generation <= reloadGen || srv.Generation() != sum.Generation {
		t.Fatalf("POST generation %d, reload generation %d, serving %d: the POST must commit after the reload",
			sum.Generation, reloadGen, srv.Generation())
	}
	if srv.Stats() == gt.DB.ComputeStats() {
		t.Fatal("the revision did not change the served statistics; the check below would not see it lost")
	}
	db, _ := ing().Snapshot()
	assertServes(t, srv, db)
}

// TestIngestReloadStress runs POSTs, reloads and reads at once (under
// -race in CI). Every acknowledged POST answers a generation above the
// poster's previous one. Once the writers stop, the served state is the
// ingester's, and it is a cold build over exactly the documents
// acknowledged after the last reload: a reload drops the documents
// acknowledged before it and never one acknowledged after it. The
// second check sees a dropped document even when a later POST brought
// the served state back in line with the ingester.
func TestIngestReloadStress(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	texts := ingestTexts(t, 2)
	srv, ing := ingestingServer(gt.DB, func(context.Context) (*domain.Database, error) {
		return gt.DB, nil
	})
	h := srv.Handler()

	var mu sync.Mutex
	acked := make(map[uint64]string) // POST generation -> its document
	var lastReload uint64
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var last uint64
			for i := w; i < len(texts); i += 2 {
				code, body := postIngest(t, srv, texts[i])
				var sum IngestSummary
				if err := json.Unmarshal(body, &sum); err != nil || code != 200 || sum.Documents != 1 {
					t.Errorf("POST %d: %d %s", i, code, truncate(body))
					return
				}
				if sum.Generation <= last {
					t.Errorf("POST %d answered generation %d after %d", i, sum.Generation, last)
					return
				}
				last = sum.Generation
				mu.Lock()
				acked[sum.Generation] = texts[i]
				mu.Unlock()
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 3; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/admin/reload", nil))
			var rr struct {
				Generation uint64 `json:"generation"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rec.Code != 200 {
				t.Errorf("reload %d: %d %s", i, rec.Code, truncate(rec.Body.Bytes()))
				return
			}
			mu.Lock()
			lastReload = max(lastReload, rr.Generation)
			mu.Unlock()
		}
	}()

	page := docPage(docKeys(gt.DB)[0])
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, u := range []string{"/v1/stats", page} {
					if code, body := get(t, h, u); code != 200 {
						t.Errorf("%s: %d %s", u, code, truncate(body))
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	db, _ := ing().Snapshot()
	assertServes(t, srv, db)
	var kept []string
	for gen, text := range acked {
		if gen > lastReload {
			kept = append(kept, text)
		}
	}
	want, _, err := ingest.Build(gt.DB, kept, ingest.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertServes(t, srv, want)
}
