// Command errload is a closed-loop load generator for errserve with
// latency SLO assertions.
//
// Usage:
//
//	errload -url http://localhost:8372 [-rps 200] [-duration 10s]
//	        [-workers 8] [-slo-p50 20ms] [-slo-p99 200ms] [-out FILE]
//
// It drives a deterministic mix of traffic at the target server —
// filtered /v1/errata queries cycling through the serving filter
// vocabulary, /v1/errata/{key} point lookups over keys harvested from
// an initial bootstrap query, and /v1/stats — at the requested
// aggregate rate. Latency percentiles are exact nearest-rank quantiles
// of every successful request's latency, for the mixed sample and for
// each request class (errata, erratum, stats).
//
// The SLO gates (-slo-p50/-slo-p99, zero disables) are asserted
// against the errata class's exact p50 and p99; a run without a
// successful errata request fails. On violation — or any request
// error — the JSON report is still written and the exit status is
// non-zero, so CI and bench scripts can gate on it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// queryMix is the /v1/errata vocabulary the generator cycles through:
// broad scans, selective filters, compound filters and pagination, so
// both result-cache hits and index evaluations occur.
var queryMix = []string{
	"/v1/errata?limit=20",
	"/v1/errata?vendor=Intel&limit=20",
	"/v1/errata?vendor=AMD&limit=20",
	"/v1/errata?class=Trg_POW&limit=20",
	"/v1/errata?category=Eff_HNG_hng",
	"/v1/errata?vendor=Intel&class=Trg_POW&min_triggers=1&limit=10",
	"/v1/errata?unique=false&limit=50",
	"/v1/errata?offset=40&limit=20",
	"/v1/errata?title=the&limit=10",
	"/v1/errata?min_triggers=2&limit=20",
}

type report struct {
	URL       string  `json:"url"`
	RPS       float64 `json:"target_rps"`
	Duration  string  `json:"duration"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	ActualRPS float64 `json:"actual_rps"`

	// Client is the mixed client-side sample; Classes splits it by
	// request class. Both are exact.
	Client  latencySummary            `json:"client"`
	Classes map[string]latencySummary `json:"classes"`

	SLO []sloResult `json:"slo,omitempty"`
	OK  bool        `json:"ok"`
}

// latencySummary is the exact nearest-rank summary of a client-side
// latency sample (seconds).
type latencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

// The request classes of the traffic mix: a filtered /v1/errata
// query, a /v1/errata/{key} point lookup, /v1/stats. classNames names
// them in the report.
const (
	classErrata = iota
	classErratum
	classStats
)

var classNames = [...]string{"errata", "erratum", "stats"}

// request is one generated URL and its request class.
type request struct {
	url   string
	class int
}

// clientQuantile returns the q-quantile of a sorted latency sample
// (seconds) by nearest rank: the ceil(q·n)-th smallest value.
func clientQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize sorts sample in place and returns its exact summary.
func summarize(sample []float64) latencySummary {
	sort.Float64s(sample)
	s := latencySummary{
		Count: len(sample),
		P50:   clientQuantile(sample, 0.50),
		P90:   clientQuantile(sample, 0.90),
		P99:   clientQuantile(sample, 0.99),
	}
	if len(sample) > 0 {
		s.Max = sample[len(sample)-1]
	}
	return s
}

// summarizeClasses returns the summary of the mixed sample — every
// class's latencies together — and of each class that saw requests.
func summarizeClasses(lats [len(classNames)][]float64) (latencySummary, map[string]latencySummary) {
	var mixed []float64
	per := make(map[string]latencySummary, len(classNames))
	for c, sample := range lats {
		mixed = append(mixed, sample...)
		if len(sample) > 0 {
			per[classNames[c]] = summarize(sample)
		}
	}
	return summarize(mixed), per
}

type sloResult struct {
	Name   string  `json:"name"`
	Target float64 `json:"target_seconds"`
	Actual float64 `json:"actual_seconds"`
	OK     bool    `json:"ok"`
}

func main() {
	fs := flag.NewFlagSet("errload", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8372", "base URL of the errserve instance")
	rps := fs.Float64("rps", 200, "aggregate request rate to sustain")
	duration := fs.Duration("duration", 10*time.Second, "length of the load run")
	workers := fs.Int("workers", 8, "concurrent request workers")
	sloP50 := fs.Duration("slo-p50", 0, "p50 SLO for the /v1/errata request class (0 disables)")
	sloP99 := fs.Duration("slo-p99", 0, "p99 SLO for the /v1/errata request class (0 disables)")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	fs.Parse(os.Args[1:])

	rep, err := run(*url, *rps, *duration, *workers, *sloP50, *sloP99)
	if rep != nil {
		enc, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr == nil {
			enc = append(enc, '\n')
			if *out != "" {
				if werr := os.WriteFile(*out, enc, 0o644); werr != nil {
					fmt.Fprintln(os.Stderr, "errload:", werr)
				}
			} else {
				os.Stdout.Write(enc)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "errload:", err)
		os.Exit(1)
	}
	if rep != nil && !rep.OK {
		fmt.Fprintln(os.Stderr, "errload: SLO violated")
		os.Exit(2)
	}
}

func run(baseURL string, rps float64, duration time.Duration, workers int, sloP50, sloP99 time.Duration) (*report, error) {
	if rps <= 0 || workers <= 0 || duration <= 0 {
		return nil, fmt.Errorf("rps, workers and duration must be positive")
	}
	client := &http.Client{Timeout: 30 * time.Second}

	keys, err := harvestKeys(client, baseURL)
	if err != nil {
		return nil, fmt.Errorf("bootstrap against %s: %w", baseURL, err)
	}
	reqs := buildTraffic(baseURL, keys)

	var (
		next     atomic.Int64 // deterministic round-robin over urls
		requests atomic.Int64
		errors   atomic.Int64
		mu       sync.Mutex
		lats     [len(classNames)][]float64
	)
	tokens := make(chan struct{}, workers)
	done := make(chan struct{})
	go func() {
		// One token per scheduled request; the closed-loop workers drain
		// them as fast as their in-flight requests allow.
		interval := time.Duration(float64(time.Second) / rps)
		if interval <= 0 {
			interval = time.Microsecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		deadline := time.After(duration)
		for {
			select {
			case <-deadline:
				close(done)
				return
			case <-tick.C:
				select {
				case tokens <- struct{}{}:
				default: // workers saturated; shed the token
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local [len(classNames)][]float64
			for {
				select {
				case <-done:
					mu.Lock()
					for c := range lats {
						lats[c] = append(lats[c], local[c]...)
					}
					mu.Unlock()
					return
				case <-tokens:
				}
				req := reqs[int(next.Add(1))%len(reqs)]
				start := time.Now()
				resp, err := client.Get(req.url)
				elapsed := time.Since(start).Seconds()
				requests.Add(1)
				if err != nil {
					errors.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 400 {
					errors.Add(1)
					continue
				}
				local[req.class] = append(local[req.class], elapsed)
			}
		}()
	}
	startedAt := time.Now()
	wg.Wait()
	elapsed := time.Since(startedAt)

	rep := &report{
		URL:      baseURL,
		RPS:      rps,
		Duration: duration.String(),
		Requests: requests.Load(),
		Errors:   errors.Load(),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ActualRPS = float64(rep.Requests) / secs
	}

	rep.Client, rep.Classes = summarizeClasses(lats)

	rep.OK = rep.Errors == 0
	errata, servedErrata := rep.Classes["errata"]
	if !servedErrata {
		rep.OK = false
		return rep, fmt.Errorf("no successful /v1/errata request")
	}
	for _, gate := range []struct {
		name   string
		target time.Duration
		actual float64
	}{
		{"errata_p50", sloP50, errata.P50},
		{"errata_p99", sloP99, errata.P99},
	} {
		if gate.target <= 0 {
			continue
		}
		res := sloResult{
			Name:   gate.name,
			Target: gate.target.Seconds(),
			Actual: gate.actual,
			OK:     gate.actual <= gate.target.Seconds(),
		}
		rep.SLO = append(rep.SLO, res)
		if !res.OK {
			rep.OK = false
		}
	}
	return rep, nil
}

// harvestKeys pulls dedup keys from a bootstrap query so the traffic
// mix can include point lookups; an empty result just means no
// point-lookup traffic.
func harvestKeys(client *http.Client, baseURL string) ([]string, error) {
	resp, err := client.Get(baseURL + "/v1/errata?limit=50")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bootstrap query: status %d", resp.StatusCode)
	}
	var body struct {
		Errata []struct {
			Key string `json:"key"`
		} `json:"errata"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	var keys []string
	seen := map[string]bool{}
	for _, e := range body.Errata {
		if e.Key != "" && !seen[e.Key] {
			seen[e.Key] = true
			keys = append(keys, e.Key)
		}
	}
	return keys, nil
}

// buildTraffic interleaves the deterministic request mix: roughly 60%
// filtered queries, 30% point lookups (when keys exist), 10% stats.
func buildTraffic(baseURL string, keys []string) []request {
	var reqs []request
	for i, q := range queryMix {
		reqs = append(reqs, request{baseURL + q, classErrata})
		if len(keys) > 0 {
			reqs = append(reqs, request{baseURL + "/v1/errata/" + keys[i%len(keys)], classErratum})
		}
		if i%3 == 0 {
			reqs = append(reqs, request{baseURL + "/v1/stats", classStats})
		}
	}
	return reqs
}
