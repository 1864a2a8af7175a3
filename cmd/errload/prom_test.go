package main

import (
	"math"
	"strings"
	"testing"
)

const sampleExposition = `# HELP rememberr_http_request_duration_seconds HTTP request latency, by endpoint.
# TYPE rememberr_http_request_duration_seconds histogram
rememberr_http_request_duration_seconds_bucket{endpoint="errata",le="0.001"} 10
rememberr_http_request_duration_seconds_bucket{endpoint="errata",le="0.01"} 70
rememberr_http_request_duration_seconds_bucket{endpoint="errata",le="0.1"} 95
rememberr_http_request_duration_seconds_bucket{endpoint="errata",le="+Inf"} 100
rememberr_http_request_duration_seconds_sum{endpoint="errata"} 1.5
rememberr_http_request_duration_seconds_count{endpoint="errata"} 100
rememberr_http_request_duration_seconds_bucket{endpoint="stats",le="0.001"} 4
rememberr_http_request_duration_seconds_bucket{endpoint="stats",le="0.01"} 4
rememberr_http_request_duration_seconds_bucket{endpoint="stats",le="0.1"} 4
rememberr_http_request_duration_seconds_bucket{endpoint="stats",le="+Inf"} 4
rememberr_http_request_duration_seconds_sum{endpoint="stats"} 0.002
rememberr_http_request_duration_seconds_count{endpoint="stats"} 4
# TYPE rememberr_http_requests_total counter
rememberr_http_requests_total{endpoint="errata"} 100
# TYPE rememberr_index_query_duration_seconds histogram
rememberr_index_query_duration_seconds_bucket{endpoint="0",le="+Inf"} 7
rememberr_index_query_duration_seconds_sum{endpoint="0"} 0.01
rememberr_index_query_duration_seconds_count{endpoint="0"} 7
`

func parseSample(t *testing.T) map[string]*promHist {
	t.Helper()
	hists, err := parseHistograms(strings.NewReader(sampleExposition), durationFamily, "endpoint")
	if err != nil {
		t.Fatal(err)
	}
	return hists
}

func TestParseHistograms(t *testing.T) {
	hists := parseSample(t)
	if len(hists) != 2 {
		t.Fatalf("parsed %d series, want 2 (errata, stats)", len(hists))
	}
	h := hists["errata"]
	if h == nil {
		t.Fatal("missing errata series")
	}
	if h.count != 100 || h.sum != 1.5 {
		t.Fatalf("errata count/sum = %d/%v, want 100/1.5", h.count, h.sum)
	}
	wantBounds := []float64{0.001, 0.01, 0.1}
	if len(h.bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", h.bounds, wantBounds)
	}
	for i, b := range wantBounds {
		if h.bounds[i] != b {
			t.Fatalf("bounds = %v, want %v", h.bounds, wantBounds)
		}
	}
	wantCounts := []uint64{10, 70, 95, 100}
	for i, c := range wantCounts {
		if h.counts[i] != c {
			t.Fatalf("counts = %v, want %v", h.counts, wantCounts)
		}
	}
	// Another histogram family, even one carrying the same label,
	// shares no observations with the request family and must not
	// bleed in.
	if _, leaked := hists["0"]; leaked {
		t.Fatal("a foreign histogram series leaked into the request-duration parse")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := parseSample(t)["errata"]
	// p50: target rank 50 lands in the (0.001, 0.01] bucket holding
	// ranks 11..70, interpolated 0.001 + 0.009*(50-10)/60.
	want := 0.001 + 0.009*40.0/60.0
	if got := h.quantile(0.50); math.Abs(got-want) > 1e-12 {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	// p99: rank 99 lands in the (0.1, +Inf] bucket and clamps to the
	// largest finite bound.
	if got := h.quantile(0.99); got != 0.1 {
		t.Fatalf("p99 = %v, want clamp to 0.1", got)
	}
	// Empty histogram.
	if got := (&promHist{}).quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestDelta(t *testing.T) {
	before := parseSample(t)["errata"]
	after := before.clone()
	for i := range after.counts {
		after.counts[i] += uint64((i + 1) * 5)
	}
	after.count += 20
	after.sum += 0.25

	d, err := after.delta(before)
	if err != nil {
		t.Fatal(err)
	}
	if d.count != 20 {
		t.Fatalf("delta count = %d, want 20", d.count)
	}
	if math.Abs(d.sum-0.25) > 1e-12 {
		t.Fatalf("delta sum = %v, want 0.25", d.sum)
	}
	for i := range d.counts {
		if want := uint64((i + 1) * 5); d.counts[i] != want {
			t.Fatalf("delta counts[%d] = %d, want %d", i, d.counts[i], want)
		}
	}
	// A nil baseline (first scrape) passes through unchanged.
	if d, err := after.delta(nil); err != nil || d.count != after.count {
		t.Fatalf("nil-baseline delta = %v, %v", d, err)
	}
	// Counters going backwards (server restart) are an error, not a
	// silent wrap-around.
	if _, err := before.delta(after); err == nil {
		t.Fatal("backwards delta succeeded; want error")
	}
}

func TestParseLabels(t *testing.T) {
	labels, err := parseLabels(`endpoint="errata",le="+Inf"`)
	if err != nil {
		t.Fatal(err)
	}
	if labels["endpoint"] != "errata" || labels["le"] != "+Inf" {
		t.Fatalf("labels = %v", labels)
	}
	labels, err = parseLabels(`name="a\"b\\c\nd"`)
	if err != nil {
		t.Fatal(err)
	}
	if labels["name"] != "a\"b\\c\nd" {
		t.Fatalf("escaped label = %q", labels["name"])
	}
	for _, bad := range []string{`name`, `name=`, `name="unterminated`, `name="x\`} {
		if _, err := parseLabels(bad); err == nil {
			t.Fatalf("parseLabels(%q) succeeded; want error", bad)
		}
	}
}

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

// TestParseHistogramsExemplars pins exemplar tolerance: OpenMetrics
// emitters append "# {labels} value [ts]" after the sample value, whose
// own braces and value must not confuse the label scan or the number
// parse. Timestamps after the value are likewise skipped.
func TestParseHistogramsExemplars(t *testing.T) {
	exposition := `
rememberr_http_request_duration_seconds_bucket{endpoint="errata",le="0.01"} 7 # {trace_id="ab}c"} 0.004 1700000000
rememberr_http_request_duration_seconds_bucket{endpoint="errata",le="+Inf"} 9 # {trace_id="def"} 0.2
rememberr_http_request_duration_seconds_sum{endpoint="errata"} 0.5 1700000000123
rememberr_http_request_duration_seconds_count{endpoint="errata"} 9
`
	hists, err := parseHistograms(strings.NewReader(exposition), durationFamily, "endpoint")
	if err != nil {
		t.Fatalf("parseHistograms: %v", err)
	}
	h := hists["errata"]
	if h == nil {
		t.Fatal("missing errata series")
	}
	if len(h.bounds) != 1 || h.bounds[0] != 0.01 {
		t.Fatalf("bounds = %v, want [0.01]", h.bounds)
	}
	if len(h.counts) != 2 || h.counts[0] != 7 || h.counts[1] != 9 {
		t.Fatalf("counts = %v, want [7 9]", h.counts)
	}
	if h.sum != 0.5 || h.count != 9 {
		t.Fatalf("sum/count = %v/%d, want 0.5/9", h.sum, h.count)
	}
}

// TestParseHistogramsInfSpellings pins the le-bound hygiene: "NaN" is
// rejected (it would poison the bound sort), negative infinity is
// rejected, and the non-canonical "Inf"/"inf"/"+inf" spellings fold
// into the +Inf bucket instead of landing an infinite "finite" bound.
func TestParseHistogramsInfSpellings(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "-Inf"} {
		exposition := `rememberr_http_request_duration_seconds_bucket{endpoint="e",le="` + bad + `"} 1
`
		if _, err := parseHistograms(strings.NewReader(exposition), durationFamily, "endpoint"); err == nil {
			t.Fatalf("le=%q accepted", bad)
		}
	}
	for _, spelling := range []string{"Inf", "inf", "+inf"} {
		exposition := `
rememberr_http_request_duration_seconds_bucket{endpoint="e",le="0.1"} 3
rememberr_http_request_duration_seconds_bucket{endpoint="e",le="` + spelling + `"} 5
rememberr_http_request_duration_seconds_count{endpoint="e"} 5
`
		hists, err := parseHistograms(strings.NewReader(exposition), durationFamily, "endpoint")
		if err != nil {
			t.Fatalf("le=%q: %v", spelling, err)
		}
		h := hists["e"]
		if len(h.bounds) != 1 || h.bounds[0] != 0.1 {
			t.Fatalf("le=%q: bounds = %v, want [0.1]", spelling, h.bounds)
		}
		if len(h.counts) != 2 || h.counts[1] != 5 {
			t.Fatalf("le=%q: counts = %v, want [3 5]", spelling, h.counts)
		}
	}
}

// TestParseHistogramsMissingInf pins the missing-+Inf fallback: the
// series count supplies the +Inf bucket when an emitter omits it, and a
// count below the last finite bucket is rejected as inconsistent.
func TestParseHistogramsMissingInf(t *testing.T) {
	exposition := `
rememberr_http_request_duration_seconds_bucket{endpoint="e",le="0.01"} 2
rememberr_http_request_duration_seconds_bucket{endpoint="e",le="0.1"} 6
rememberr_http_request_duration_seconds_sum{endpoint="e"} 0.4
rememberr_http_request_duration_seconds_count{endpoint="e"} 8
`
	hists, err := parseHistograms(strings.NewReader(exposition), durationFamily, "endpoint")
	if err != nil {
		t.Fatalf("parseHistograms: %v", err)
	}
	h := hists["e"]
	if len(h.counts) != 3 || h.counts[2] != 8 {
		t.Fatalf("counts = %v, want [2 6 8]", h.counts)
	}
	if got := h.quantile(0.5); got <= 0.01 || got > 0.1 {
		t.Fatalf("p50 = %v, want inside (0.01, 0.1]", got)
	}

	inconsistent := `
rememberr_http_request_duration_seconds_bucket{endpoint="e",le="0.1"} 6
rememberr_http_request_duration_seconds_count{endpoint="e"} 3
`
	if _, err := parseHistograms(strings.NewReader(inconsistent), durationFamily, "endpoint"); err == nil {
		t.Fatal("count below last bucket accepted")
	}
}
