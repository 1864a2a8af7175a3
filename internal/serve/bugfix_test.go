package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/corpus"
)

// mustQuery parses a raw "?a=b" query string into url.Values.
func mustQuery(t *testing.T, rawQuery string) url.Values {
	t.Helper()
	u, err := url.Parse("/v1/errata" + rawQuery)
	if err != nil {
		t.Fatal(err)
	}
	return u.Query()
}

// datedServer builds a server over the synthetic corpus with
// deterministic disclosure dates spread over 2008-2017 (the raw corpus
// carries none, which would make every date range legitimately empty).
func datedServer(t *testing.T, opts Options) *Server {
	t.Helper()
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range gt.DB.Errata() {
		e.Disclosed = time.Date(2008+i%10, time.Month(1+i%12), 1+i%28, 0, 0, 0, 0, time.UTC)
	}
	return newDBServer(gt.DB, opts)
}

// TestDisclosedRangeCacheKeys is the regression test for the
// response-cache key collision on swapped date ranges: canonicalizing
// disclosed_from/disclosed_to by sorting their values collapsed
// "from=2020,to=2010" (an empty range) and "from=2010,to=2020" (a
// populated range) onto one LRU entry, so whichever query ran first
// served its cached body for the other.
func TestDisclosedRangeCacheKeys(t *testing.T) {
	for _, order := range [][2]string{
		{"?disclosed_from=2020-01-01&disclosed_to=2010-01-01",
			"?disclosed_from=2010-01-01&disclosed_to=2020-01-01"},
		{"?disclosed_from=2010-01-01&disclosed_to=2020-01-01",
			"?disclosed_from=2020-01-01&disclosed_to=2010-01-01"},
	} {
		reqA, err := parseFilters(mustQuery(t, order[0]))
		if err != nil {
			t.Fatal(err)
		}
		reqB, err := parseFilters(mustQuery(t, order[1]))
		if err != nil {
			t.Fatal(err)
		}
		if reqA.key == reqB.key {
			t.Fatalf("swapped disclosed ranges share cache key %q", reqA.key)
		}
	}

	// End to end: issue the inverted (empty) range first so its cached
	// body is resident, then the real range — a collision would serve
	// the cached empty result.
	s := datedServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	var inverted, real errataResp
	getJSON(t, c, ts.URL+"/v1/errata?disclosed_from=2020-01-01&disclosed_to=2010-01-01", &inverted)
	getJSON(t, c, ts.URL+"/v1/errata?disclosed_from=2010-01-01&disclosed_to=2020-01-01", &real)
	if inverted.Total != 0 {
		t.Fatalf("inverted range total = %d, want 0", inverted.Total)
	}
	if real.Total == inverted.Total {
		t.Fatalf("real range total %d equals inverted range total %d — cache key collision",
			real.Total, inverted.Total)
	}
	m := s.Metrics()
	if m.Cache.Entries != 2 {
		t.Fatalf("cache entries = %d, want 2 distinct entries for the two ranges", m.Cache.Entries)
	}

	// One-sided ranges stay distinct from each other and from the
	// two-sided range too.
	from, err := parseFilters(mustQuery(t, "?disclosed_from=2010-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	to, err := parseFilters(mustQuery(t, "?disclosed_to=2010-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	if from.key == to.key {
		t.Fatalf("one-sided from/to ranges share cache key %q", from.key)
	}
}

// TestTimeoutCountsAsError is the regression test for timeouts being
// invisible to the error metrics: http.TimeoutHandler wrote its 503 on
// the real writer, but instrumentation only saw the buffered inner
// status, so rememberr_http_errors_total never moved. The deadline now
// lives in instrument's own recorder, which answers a first write after
// it with the 503 and counts it. Nothing can pre-empt a handler, so the
// slow one here returns — after its 20ms deadline — instead of blocking.
func TestTimeoutCountsAsError(t *testing.T) {
	s := testServer(t, Options{RequestTimeout: 20 * time.Millisecond})

	slow := func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		w.Write([]byte(`{"status":"too late"}`))
	}
	// The same chain Handler() builds for every endpoint, with a
	// deliberately slow handler in place of the real one.
	h := s.instrument("errata", slow)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/errata", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d, want 503", rec.Code)
	}
	m := s.Metrics()
	if got := m.Endpoints["errata"].Errors; got != 1 {
		t.Fatalf("errata errors after timeout = %d, want 1", got)
	}
	if got := m.Endpoints["errata"].Requests; got != 1 {
		t.Fatalf("errata requests after timeout = %d, want 1", got)
	}

	// A fast request through the same chain stays error-free.
	fast := s.instrument("stats", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	rec = httptest.NewRecorder()
	fast.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("fast request = %d, want 200", rec.Code)
	}
	if got := s.Metrics().Endpoints["stats"].Errors; got != 0 {
		t.Fatalf("stats errors after fast request = %d, want 0", got)
	}
}

// TestDuplicateSingleValuedParams is the regression test for repeated
// single-valued parameters being silently dropped: ?vendor=Intel&
// vendor=AMD used only vals[0] and quietly returned Intel-only results
// despite the handler's strict unknown-parameter 400 policy. Duplicates
// are now a 400; multi-valued parameters keep composing.
func TestDuplicateSingleValuedParams(t *testing.T) {
	s := testServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	rejected := []string{
		"?vendor=Intel&vendor=AMD",
		"?vendor=Intel&vendor=Intel", // even repeated-but-equal
		"?doc=intel-06&doc=intel-07",
		"?title=the&title=a",
		"?min_triggers=1&min_triggers=2",
		"?complex=true&complex=false",
		"?sim_only=true&sim_only=true",
		"?workaround=BIOS&workaround=Software",
		"?fix=Fixed&fix=FixPlanned",
		"?unique=true&unique=false",
		"?limit=5&limit=10",
		"?offset=0&offset=5",
		"?disclosed_from=2010-01-01&disclosed_from=2012-01-01",
		"?disclosed_to=2010-01-01&disclosed_to=2012-01-01",
	}
	for _, q := range rejected {
		if code := getJSON(t, c, ts.URL+"/v1/errata"+q, nil); code != http.StatusBadRequest {
			t.Errorf("/v1/errata%s = %d, want 400", q, code)
		}
	}

	accepted := []string{
		"?category=Eff_HNG_hng&category=Trg_POW_pwc",
		"?any_category=Eff_HNG_hng&any_category=Eff_HNG_crh",
		"?class=Trg_POW&class=Eff_HNG",
		"?trigger=Trg_POW_pwc&trigger=Trg_MOP_fen",
		"?msr=MCx_STATUS&msr=MCx_ADDR",
		"?vendor=Intel&category=Eff_HNG_hng", // distinct params untouched
	}
	for _, q := range accepted {
		if code := getJSON(t, c, ts.URL+"/v1/errata"+q, nil); code != http.StatusOK {
			t.Errorf("/v1/errata%s = %d, want 200", q, code)
		}
	}
}
