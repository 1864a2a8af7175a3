package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestClientQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := clientQuantile(sorted, 0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := clientQuantile(sorted, 0.99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := clientQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	if got := clientQuantile([]float64{42}, 0.01); got != 42 {
		t.Fatalf("single-sample low quantile = %v, want 42", got)
	}
	// Nearest rank is ceil(q·n): the p99 of 90 samples is rank 90
	// (89.1 rounds up), not rank 89.
	var ninety []float64
	for i := 1; i <= 90; i++ {
		ninety = append(ninety, float64(i))
	}
	if got := clientQuantile(ninety, 0.99); got != 90 {
		t.Fatalf("p99 of 1..90 = %v, want 90", got)
	}
}

// TestClassQuantiles pins the exact per-class client quantiles: each
// class is summarized from its own requests only, by nearest rank, and
// the mixed summary covers every class's requests.
func TestClassQuantiles(t *testing.T) {
	// Known samples, out of order: errata 1..100 ms, erratum a constant
	// 7 ms, stats none.
	var lats [len(classNames)][]float64
	for i := 100; i >= 1; i-- {
		lats[classErrata] = append(lats[classErrata], float64(i)/1000)
	}
	lats[classErratum] = []float64{0.007, 0.007, 0.007}
	mixed, per := summarizeClasses(lats)
	errata := per["errata"]
	if errata.Count != 100 || errata.P50 != 0.050 || errata.P90 != 0.090 || errata.P99 != 0.099 || errata.Max != 0.100 {
		t.Fatalf("errata summary %+v, want 100 samples, p50 50ms, p90 90ms, p99 99ms, max 100ms", errata)
	}
	if erratum := per["erratum"]; erratum.Count != 3 || erratum.P50 != 0.007 || erratum.P99 != 0.007 {
		t.Fatalf("erratum summary %+v, want 3 samples at 7ms", erratum)
	}
	if _, ok := per["stats"]; ok {
		t.Fatal("a class without requests was summarized")
	}
	// 103 samples, four of them 7ms: rank 52 is 49ms.
	if mixed.Count != 103 || mixed.P50 != 0.049 || mixed.Max != 0.100 {
		t.Fatalf("mixed summary %+v, want 103 samples, p50 49ms, max 100ms", mixed)
	}
}

func TestBuildTraffic(t *testing.T) {
	withKeys := buildTraffic("http://x", []string{"k1", "k2"})
	var lookups, stats int
	for _, r := range withKeys {
		switch {
		case r.class == classErratum && strings.Contains(r.url, "/v1/errata/k"):
			lookups++
		case r.class == classStats && strings.HasSuffix(r.url, "/v1/stats"):
			stats++
		case r.class != classErrata || !strings.Contains(r.url, "/v1/errata?"):
			t.Fatalf("request %s labelled %s", r.url, classNames[r.class])
		}
	}
	if lookups == 0 || stats == 0 {
		t.Fatalf("traffic mix missing lookups (%d) or stats (%d): %v", lookups, stats, withKeys)
	}
	for _, r := range buildTraffic("http://x", nil) {
		if strings.Contains(r.url, "/v1/errata/k") {
			t.Fatalf("keyless traffic contains point lookup %s", r.url)
		}
	}
}

// fakeServer serves the three routes errload drives and nothing else,
// passing /v1/errata queries to the errata handler; the bootstrap query
// (limit=50) always gets two keyed errata so point lookups occur.
func fakeServer(t *testing.T, errata http.HandlerFunc) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/errata", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery == "limit=50" {
			w.Write([]byte(`{"errata":[{"key":"I-0001"},{"key":"A-0002"}]}`))
			return
		}
		errata(w, r)
	})
	mux.HandleFunc("/v1/errata/", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"key":"I-0001"}`))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"errata":2}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func okErrata(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{"errata":[]}`)) }

// runShort drives url at 200 rps for 400ms (about 80 requests, more
// than three passes over the 24-request traffic mix) with two workers.
func runShort(url string, sloP50, sloP99 time.Duration) (*report, error) {
	return run(url, 200, 400*time.Millisecond, 2, sloP50, sloP99)
}

func TestRunFastHandlersPass(t *testing.T) {
	rep, err := runShort(fakeServer(t, okErrata), time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Errors != 0 || len(rep.SLO) != 2 {
		t.Fatalf("report not OK: ok=%v errors=%d slo=%+v", rep.OK, rep.Errors, rep.SLO)
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(enc, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["server"]; ok {
		t.Fatalf("report has a server section: %s", enc)
	}
	for _, class := range classNames {
		if rep.Classes[class].Count == 0 {
			t.Fatalf("class %s has no samples: %s", class, enc)
		}
	}
}

func TestRunSlowErrataFailsP50(t *testing.T) {
	const sleep = 20 * time.Millisecond
	url := fakeServer(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(sleep)
		okErrata(w, r)
	})
	rep, err := runShort(url, 5*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || len(rep.SLO) != 1 {
		t.Fatalf("slow errata passed: ok=%v slo=%+v", rep.OK, rep.SLO)
	}
	if g := rep.SLO[0]; g.Name != "errata_p50" || g.OK || g.Actual < sleep.Seconds() {
		t.Fatalf("gate %+v, want a failed errata_p50 with actual >= %v", g, sleep)
	}
}

func TestRunErrataErrorsNotOK(t *testing.T) {
	url := fakeServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	rep, err := runShort(url, 0, 0)
	if err == nil || rep == nil || rep.OK || rep.Errors == 0 {
		t.Fatalf("run with failing errata: err=%v report=%+v, want an error and a report that is not OK", err, rep)
	}
}
