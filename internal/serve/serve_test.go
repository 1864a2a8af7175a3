package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/pkg/domain"
)

// newDBServer is the test-side shorthand for the database-backed
// constructor; New only errors when no source is configured, which a
// non-nil db rules out.
func newDBServer(db *domain.Database, opts Options) *Server {
	s, err := New(WithDatabase(db), opts)
	if err != nil {
		panic(err)
	}
	return s
}

// testServer builds a server over the synthetic corpus (seed 1).
func testServer(t testing.TB, opts Options) *Server {
	t.Helper()
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	return newDBServer(gt.DB, opts)
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

type errataResp struct {
	Total  int  `json:"total"`
	Offset int  `json:"offset"`
	Count  int  `json:"count"`
	Unique bool `json:"unique"`
	Errata []struct {
		FullID string `json:"full_id"`
		Key    string `json:"key"`
		Vendor string `json:"vendor"`
	} `json:"errata"`
}

func TestEndpoints(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	var health struct {
		Status string `json:"status"`
		Errata int    `json:"errata"`
		Unique int    `json:"unique"`
	}
	if code := getJSON(t, c, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if health.Status != "ok" || health.Errata == 0 || health.Unique == 0 {
		t.Fatalf("/healthz = %+v", health)
	}

	var stats struct {
		Errata     int `json:"errata"`
		Unique     int `json:"unique"`
		Documents  int `json:"documents"`
		Categories int `json:"categories"`
	}
	if code := getJSON(t, c, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	if stats.Errata != health.Errata || stats.Unique != health.Unique {
		t.Fatalf("/stats %+v disagrees with /healthz %+v", stats, health)
	}
	if stats.Documents == 0 || stats.Categories == 0 {
		t.Fatalf("/stats = %+v", stats)
	}

	// Unfiltered query, default pagination.
	var all errataResp
	getJSON(t, c, ts.URL+"/errata", &all)
	if all.Total != health.Unique || !all.Unique {
		t.Fatalf("unfiltered total = %d unique=%v, want %d/true", all.Total, all.Unique, health.Unique)
	}
	if all.Count != 100 || len(all.Errata) != 100 {
		t.Fatalf("default page count = %d/%d, want 100", all.Count, len(all.Errata))
	}

	// unique=false surfaces every occurrence.
	var dup errataResp
	getJSON(t, c, ts.URL+"/errata?unique=false", &dup)
	if dup.Total != health.Errata || dup.Unique {
		t.Fatalf("unique=false total = %d, want %d", dup.Total, health.Errata)
	}

	// Vendor filter: results all carry the vendor, and Intel+AMD
	// partition the corpus.
	var intel, amd errataResp
	getJSON(t, c, ts.URL+"/errata?vendor=Intel&limit=1000", &intel)
	getJSON(t, c, ts.URL+"/errata?vendor=AMD&limit=1000", &amd)
	if intel.Total+amd.Total != all.Total {
		t.Fatalf("Intel %d + AMD %d != %d", intel.Total, amd.Total, all.Total)
	}
	for _, e := range intel.Errata {
		if e.Vendor != "Intel" {
			t.Fatalf("Intel query returned %q vendor %q", e.FullID, e.Vendor)
		}
	}

	// Pagination walks without overlap.
	var p1, p2 errataResp
	getJSON(t, c, ts.URL+"/errata?limit=5&offset=0", &p1)
	getJSON(t, c, ts.URL+"/errata?limit=5&offset=5", &p2)
	if len(p1.Errata) != 5 || len(p2.Errata) != 5 || p1.Errata[0].FullID == p2.Errata[0].FullID {
		t.Fatalf("pagination broken: %+v / %+v", p1.Errata[0], p2.Errata[0])
	}
	var tail errataResp
	getJSON(t, c, ts.URL+"/errata?offset=999999", &tail)
	if tail.Count != 0 {
		t.Fatalf("past-the-end offset returned %d rows", tail.Count)
	}

	// Detail endpoint round-trip via a key from the listing.
	key := all.Errata[0].Key
	var detail struct {
		Key         string `json:"key"`
		Occurrences int    `json:"occurrences"`
		Entries     []struct {
			FullID string `json:"full_id"`
			Title  string `json:"title"`
		} `json:"entries"`
	}
	if code := getJSON(t, c, ts.URL+"/errata/"+key, &detail); code != 200 {
		t.Fatalf("/errata/%s = %d", key, code)
	}
	if detail.Key != key || detail.Occurrences != len(detail.Entries) || len(detail.Entries) == 0 {
		t.Fatalf("detail = %+v", detail)
	}
	if code := getJSON(t, c, ts.URL+"/errata/no-such-key", nil); code != 404 {
		t.Fatalf("missing key = %d, want 404", code)
	}

	// Bad requests are 400s, not empty 200s.
	for _, q := range []string{
		"?nope=1", "?vendor=VIA", "?min_triggers=many", "?min_triggers=-1", "?limit=-1",
		"?offset=x", "?unique=maybe", "?disclosed_from=yesterday",
		"?workaround=magic", "?fix=eventually", "?complex=perhaps",
	} {
		if code := getJSON(t, c, ts.URL+"/errata"+q, nil); code != 400 {
			t.Errorf("/errata%s = %d, want 400", q, code)
		}
	}

	// Compound filter agrees with the direct index query.
	var hangs errataResp
	getJSON(t, c, ts.URL+"/errata?vendor=Intel&category=Eff_HNG_hng&limit=1000", &hangs)
	want := s.snap.Load().ix.Query().Vendor(domain.Intel).WithCategory("Eff_HNG_hng").Count()
	if hangs.Total != want {
		t.Fatalf("compound filter total = %d, want %d", hangs.Total, want)
	}
}

// TestCacheCanonicalization proves that parameter order, repeated equal
// values and explicit default values do not fragment the cache: every
// spelling of one logical query lands on one entry, with one body.
func TestCacheCanonicalization(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		variants []string
	}{
		{"reordered", []string{
			"vendor=Intel&category=Eff_HNG_hng&category=Trg_POW_pwc",
			"category=Trg_POW_pwc&category=Eff_HNG_hng&vendor=Intel",
		}},
		{"unique default", []string{"", "unique=true", "unique=yes"}},
		{"limit default", []string{"", "limit=100", "limit=0100"}},
		{"offset default", []string{"", "offset=0"}},
		{"complex default", []string{"", "complex=false", "complex=0"}},
		{"sim_only default", []string{"", "sim_only=false"}},
		{"min_triggers zero", []string{"", "min_triggers=0", "min_triggers=00"}},
		{"empty title", []string{"", "title="}},
		{"empty dates", []string{"", "disclosed_from=&disclosed_to="}},
		{"repeated values", []string{"category=Eff_HNG_hng", "category=Eff_HNG_hng&category=Eff_HNG_hng"}},
		{"defaults with a filter", []string{
			"vendor=AMD",
			"vendor=AMD&unique=true&limit=100&offset=0&complex=false&sim_only=false",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newDBServer(gt.DB, Options{})
			h := s.Handler()
			var first []byte
			for i, v := range tc.variants {
				code, body := getErrata(h, v)
				if code != http.StatusOK {
					t.Fatalf("?%s: status %d", v, code)
				}
				if i == 0 {
					first = body
				} else if !bytes.Equal(body, first) {
					t.Fatalf("?%s: body differs from ?%s", v, tc.variants[0])
				}
			}
			m := s.Metrics()
			if want := int64(len(tc.variants) - 1); m.Cache.Misses != 1 || m.Cache.Hits != want {
				t.Fatalf("cache hits=%d misses=%d, want %d/1 (canonical key collapse)", m.Cache.Hits, m.Cache.Misses, want)
			}
			if m.Cache.Entries != 1 {
				t.Fatalf("cache entries = %d, want 1", m.Cache.Entries)
			}
		})
	}
}

// TestCacheKeyDistinct holds distinct filter sets to distinct cache
// entries where a value's own ',' or '&' once made two keys equal: a
// comma inside one category against two categories, two regroupings of
// one any_category item set, and a '&' inside a doc value. Each pair
// must answer as the uncached server does.
func TestCacheKeyDistinct(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{"category=Eff_HNG_hng,Trg_POW_pwc", "category=Eff_HNG_hng&category=Trg_POW_pwc"},
		{"any_category=Eff_HNG_hng,Eff_HNG_crh&any_category=Trg_POW_pwc", "any_category=Eff_HNG_hng&any_category=Eff_HNG_crh,Trg_POW_pwc"},
		{"doc=intel-06%26vendor%3DIntel", "doc=intel-06&vendor=Intel"},
	} {
		cached := newDBServer(gt.DB, Options{}).Handler()
		uncached := newDBServer(gt.DB, Options{CacheSize: -1}).Handler()
		for _, q := range pair {
			_, want := getErrata(uncached, q)
			if code, got := getErrata(cached, q); code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("?%s after ?%s: cached %d %q != uncached %q", q, pair[0], code, truncate(got), truncate(want))
			}
		}
	}
}

// TestConcurrentClients is the -race acceptance test: 100 goroutines
// mixing /errata queries, /stats and /metrics against one server, then
// a consistency check that the cache and endpoint counters add up to
// exactly the traffic issued.
func TestConcurrentClients(t *testing.T) {
	s := testServer(t, Options{CacheSize: 8, RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	queries := []string{
		"/errata",
		"/errata?vendor=Intel",
		"/errata?vendor=AMD",
		"/errata?category=Eff_HNG_hng",
		"/errata?vendor=Intel&class=Trg_POW",
		"/errata?min_triggers=2&limit=10",
		"/errata?unique=false&limit=1000",
		"/errata?sim_only=true",
		"/errata?trigger=Trg_POW_pwc&trigger=Trg_MOP_fen",
		"/errata?any_category=Eff_HNG_hng,Eff_HNG_crh",
		"/errata?title=the",
		"/errata?msr=MCx_STATUS",
	}

	const goroutines = 100
	const perGoroutine = 20
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				var url string
				var wantTotal bool
				switch {
				case i%5 == 3:
					url = "/stats"
				case i%7 == 6:
					url = "/metrics"
				default:
					url = queries[(g+i)%len(queries)]
					wantTotal = true
				}
				resp, err := c.Get(ts.URL + url)
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("%s = %d: %s", url, resp.StatusCode, body)
					return
				}
				if wantTotal {
					var r errataResp
					if err := json.Unmarshal(body, &r); err != nil {
						errCh <- fmt.Errorf("%s: %v", url, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Counter consistency: every /errata request performs exactly one
	// cache lookup, so hits+misses must equal the errata request count,
	// and the per-endpoint counters must account for all traffic.
	m := s.Metrics()
	var issued, errataReqs, statsReqs, metricsReqs int64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perGoroutine; i++ {
			issued++
			switch {
			case i%5 == 3:
				statsReqs++
			case i%7 == 6:
				metricsReqs++
			default:
				errataReqs++
			}
		}
	}
	if got := m.Endpoints["errata"].Requests; got != errataReqs {
		t.Errorf("errata requests = %d, want %d", got, errataReqs)
	}
	if got := m.Endpoints["stats"].Requests; got != statsReqs {
		t.Errorf("stats requests = %d, want %d", got, statsReqs)
	}
	if got := m.Endpoints["metrics"].Requests; got != metricsReqs {
		t.Errorf("metrics requests = %d, want %d", got, metricsReqs)
	}
	if total := m.Cache.Hits + m.Cache.Misses; total != errataReqs {
		t.Errorf("cache hits(%d)+misses(%d) = %d, want %d (one lookup per /errata)",
			m.Cache.Hits, m.Cache.Misses, total, errataReqs)
	}
	if m.Cache.Hits == 0 {
		t.Error("no cache hits under repeated identical queries")
	}
	if m.Cache.Entries > 8 {
		t.Errorf("cache entries = %d, exceeds capacity 8", m.Cache.Entries)
	}
	// 12 distinct queries through an 8-entry cache must evict.
	if m.Cache.Evictions == 0 {
		t.Error("no evictions with more distinct queries than capacity")
	}
	for name, ep := range m.Endpoints {
		if ep.Errors != 0 {
			t.Errorf("%s errors = %d, want 0", name, ep.Errors)
		}
		if ep.Requests > 0 && ep.LatencyNS <= 0 {
			t.Errorf("%s latency = %d with %d requests", name, ep.LatencyNS, ep.Requests)
		}
	}
}

func newTestCache(max int) *lruCache {
	reg := obs.NewRegistry()
	return newLRUCache(max,
		reg.Counter("test_cache_hits_total", ""),
		reg.Counter("test_cache_misses_total", ""),
		reg.Counter("test_cache_evictions_total", ""))
}

func TestLRUCache(t *testing.T) {
	c := newTestCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if v, ok := c.get("a"); !ok || string(v) != "1" {
		t.Fatalf("get(a) = %q %v", v, ok)
	}
	// "b" is now LRU; inserting "c" evicts it.
	c.put("c", []byte("3"))
	if _, ok := c.get("b"); ok {
		t.Fatal("evicted entry still present")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	// Updating in place must not grow the cache.
	c.put("a", []byte("1x"))
	if v, _ := c.get("a"); string(v) != "1x" {
		t.Fatalf("update in place failed: %q", v)
	}
	hits, misses, evictions, entries := c.stats()
	if hits != 3 || misses != 2 || evictions != 1 || entries != 2 {
		t.Fatalf("stats = %d/%d/%d/%d, want 3/2/1/2", hits, misses, evictions, entries)
	}

	// Disabled cache never stores.
	off := newTestCache(-1)
	off.put("a", []byte("1"))
	if _, ok := off.get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// startServe runs s.Serve on a free loopback port until it answers
// /healthz, and returns the address plus a stop function that cancels
// Serve and returns its result.
func startServe(t *testing.T, s *Server) (addr string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, addr) }()
	stop = func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			return errors.New("server did not shut down")
		}
	}

	// Wait for the server to come up, then probe it.
	for i := 0; i < 50; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return addr, stop
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()
	t.Fatal("server never became healthy")
	return "", nil
}

// TestServeShutdown exercises the graceful shutdown path end to end on
// a real listener.
func TestServeShutdown(t *testing.T) {
	_, stop := startServe(t, testServer(t, Options{}))
	if err := stop(); err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestOversizedHeaderRefused pins Serve's header limit: a request whose
// header block exceeds maxHeaderBytes is refused with 431 by the
// transport, before any handler runs, so no endpoint counts it.
func TestOversizedHeaderRefused(t *testing.T) {
	s := testServer(t, Options{})
	addr, stop := startServe(t, s)
	defer stop()
	before := s.Metrics()

	req, err := http.NewRequest("GET", "http://"+addr+"/v1/errata", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("a", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: status %d, want 431", resp.StatusCode)
	}
	after := s.Metrics()
	for name, ep := range after.Endpoints {
		if ep.Requests != before.Endpoints[name].Requests {
			t.Errorf("%s counted the refused request (%d -> %d)", name, before.Endpoints[name].Requests, ep.Requests)
		}
	}
}
