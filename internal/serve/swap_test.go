package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/pkg/domain"
)

// swapTestDBs returns two databases with provably different statistics:
// the same generated corpus, with one document removed from the second.
func swapTestDBs(t *testing.T) (*domain.Database, *domain.Database) {
	t.Helper()
	gtA, err := corpus.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	gtB, err := corpus.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	dbB := gtB.DB
	delete(dbB.Docs, dbB.Documents()[0].Key)
	a, b := gtA.DB.ComputeStats(), dbB.ComputeStats()
	if a.Total == b.Total || a.Unique == b.Unique {
		t.Fatalf("test databases do not differ: %+v vs %+v", a, b)
	}
	return gtA.DB, dbB
}

// TestSnapshotSwapUnderLoad hammers the API across 100 goroutines while
// the main goroutine swaps snapshots mid-flight. Run under -race. Every
// response must be internally consistent with the generation id it
// reports — a torn snapshot, or a response-cache entry leaking across
// generations, shows up as a total that contradicts the generation.
func TestSnapshotSwapUnderLoad(t *testing.T) {
	dbA, dbB := swapTestDBs(t)
	statsA, statsB := dbA.ComputeStats(), dbB.ComputeStats()

	s := newDBServer(dbA, Options{CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Generation parity determines the database: New installs dbA as
	// generation 1 and the swapper below alternates dbB, dbA, dbB, ...
	expect := func(gen uint64) domain.Stats {
		if gen%2 == 1 {
			return statsA
		}
		return statsB
	}

	// Sanity: the initial snapshot serves generation 1 with dbA stats.
	var first struct {
		Errata     int    `json:"errata"`
		Generation uint64 `json:"generation"`
	}
	resp, err := client.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if first.Generation != 1 || first.Errata != statsA.Total {
		t.Fatalf("initial response: %+v, want gen 1 with %d errata", first, statsA.Total)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					// The identical filter key every iteration makes
					// this a response-cache torture test: a stale entry
					// served for a newer generation mismatches below.
					var body struct {
						Total      int    `json:"total"`
						Generation uint64 `json:"generation"`
					}
					if !getInto(t, client, ts.URL+"/v1/errata?limit=1", &body) {
						return
					}
					if want := expect(body.Generation).Unique; body.Total != want {
						t.Errorf("errata: generation %d reported total %d, want %d",
							body.Generation, body.Total, want)
						return
					}
				case 1:
					var body struct {
						Errata     int    `json:"errata"`
						Unique     int    `json:"unique"`
						Generation uint64 `json:"generation"`
					}
					if !getInto(t, client, ts.URL+"/v1/stats", &body) {
						return
					}
					want := expect(body.Generation)
					if body.Errata != want.Total || body.Unique != want.Unique {
						t.Errorf("stats: generation %d reported %d/%d, want %d/%d",
							body.Generation, body.Errata, body.Unique, want.Total, want.Unique)
						return
					}
				case 2:
					var body struct {
						Errata     int    `json:"errata"`
						Unique     int    `json:"unique"`
						Generation uint64 `json:"generation"`
					}
					if !getInto(t, client, ts.URL+"/healthz", &body) {
						return
					}
					want := expect(body.Generation)
					if body.Errata != want.Total || body.Unique != want.Unique {
						t.Errorf("healthz: generation %d reported %d/%d, want %d/%d",
							body.Generation, body.Errata, body.Unique, want.Total, want.Unique)
						return
					}
				}
			}
		}(i)
	}

	lastGen := uint64(1)
	for i := 0; i < 25; i++ {
		db := dbB
		if i%2 == 1 {
			db = dbA
		}
		gen := s.Swap(db)
		if gen != lastGen+1 {
			t.Fatalf("swap %d installed generation %d, want %d", i, gen, lastGen+1)
		}
		lastGen = gen
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Post-swap steady state: new requests see the final generation.
	if got := s.Generation(); got != lastGen {
		t.Fatalf("Generation() = %d, want %d", got, lastGen)
	}
	var final struct {
		Errata     int    `json:"errata"`
		Generation uint64 `json:"generation"`
	}
	if !getInto(t, client, ts.URL+"/v1/stats", &final) {
		t.Fatal("final stats request failed")
	}
	if final.Generation != lastGen || final.Errata != expect(lastGen).Total {
		t.Fatalf("final response %+v, want generation %d with %d errata",
			final, lastGen, expect(lastGen).Total)
	}
}

// getInto fetches a URL and decodes the JSON body; it reports false
// (after t.Error) on any failure so load goroutines can bail out.
func getInto(t *testing.T, c *http.Client, url string, into any) bool {
	resp, err := c.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d", url, resp.StatusCode)
		return false
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Errorf("GET %s: decode: %v", url, err)
		return false
	}
	return true
}

// TestAdminReload covers the reload endpoint: 501 without a reloader,
// zero-downtime swap with one, and an untouched snapshot on reloader
// failure.
func TestAdminReload(t *testing.T) {
	dbA, dbB := swapTestDBs(t)
	statsB := dbB.ComputeStats()

	// No reloader configured: 501.
	s := newDBServer(dbA, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without reloader = %d, want 501", resp.StatusCode)
	}
	if _, err := s.Reload(context.Background()); err == nil {
		t.Fatal("Reload without reloader did not error")
	}

	// With a reloader: swap to dbB, generation advances, stats follow.
	var fail bool
	var s2 *Server
	s2 = newDBServer(dbA, Options{Reloader: func(context.Context) (uint64, error) {
		if fail {
			return 0, errors.New("synthetic reload failure")
		}
		return s2.Swap(dbB), nil
	}})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Post(ts2.URL+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Status != "ok" || rr.Generation != 2 {
		t.Fatalf("reload response: %d %+v, want 200 ok generation 2", resp.StatusCode, rr)
	}
	var st struct {
		Errata     int    `json:"errata"`
		Generation uint64 `json:"generation"`
	}
	if !getInto(t, ts2.Client(), ts2.URL+"/v1/stats", &st) {
		t.Fatal("stats after reload failed")
	}
	if st.Generation != 2 || st.Errata != statsB.Total {
		t.Fatalf("post-reload stats %+v, want generation 2 with %d errata", st, statsB.Total)
	}

	// GET on the reload path is not routed (admin reloads are POST-only).
	getResp, err := ts2.Client().Get(ts2.URL + "/v1/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/admin/reload unexpectedly succeeded")
	}

	// Failing reloader: 500, generation and data unchanged.
	fail = true
	resp, err = ts2.Client().Post(ts2.URL+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	bodyBytes := make([]byte, 256)
	n, _ := resp.Body.Read(bodyBytes)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing reload = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(bodyBytes[:n]), "synthetic reload failure") {
		t.Fatalf("failing reload body %q does not surface the cause", bodyBytes[:n])
	}
	if got := s2.Generation(); got != 2 {
		t.Fatalf("generation after failed reload = %d, want 2", got)
	}
}

// TestSwapInvalidatesCache pins the generation-scoped cache behavior
// directly: the same logical query served before and after a swap must
// produce fresh results, while repeat queries within one generation
// still hit the cache.
func TestSwapInvalidatesCache(t *testing.T) {
	dbA, dbB := swapTestDBs(t)
	statsA, statsB := dbA.ComputeStats(), dbB.ComputeStats()
	s := newDBServer(dbA, Options{CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (int, uint64) {
		var body struct {
			Total      int    `json:"total"`
			Generation uint64 `json:"generation"`
		}
		if !getInto(t, ts.Client(), ts.URL+"/v1/errata?limit=1", &body) {
			t.FailNow()
		}
		return body.Total, body.Generation
	}

	tot, gen := get()
	if gen != 1 || tot != statsA.Unique {
		t.Fatalf("gen1 query: total %d gen %d, want %d gen 1", tot, gen, statsA.Unique)
	}
	// Second identical query hits the cache (hit counter increments).
	hitsBefore := s.cache.hits.Value()
	if tot2, _ := get(); tot2 != tot {
		t.Fatalf("repeat query changed total: %d vs %d", tot2, tot)
	}
	if s.cache.hits.Value() != hitsBefore+1 {
		t.Fatal("repeat query within one generation missed the cache")
	}

	s.Swap(dbB)
	tot, gen = get()
	if gen != 2 || tot != statsB.Unique {
		t.Fatalf("post-swap query: total %d gen %d, want %d gen 2 (stale cache entry served?)",
			tot, gen, statsB.Unique)
	}
}
