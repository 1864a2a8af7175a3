package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/index"
	"repro/internal/store"
)

// perLayer computes the per-layer metrics of a traced run from its
// spans, the server's counters and two replays made after the traced
// phase: the run's reads through the bare Handler (allocations) and its
// filters through the index query API (index time).
func (b *bench) perLayer(w workload, h *host, ph, tph *phase) (map[string]metric, error) {
	pl := map[string]metric{}
	span := func(key, name string) {
		d := b.tr.durations(name)
		pl[key] = metric{Value: median(d), Unit: "ms", n: len(d)}
	}
	span("store.open_ms", "store.open")
	span("serve.new_ms", "serve.new")
	span("ingest.new_from_ms", "ingest.new_from")
	span("serve.first_answer_ms", "client.first_get")
	span("store.encode_v2_ms", "store.encode_v2")
	for _, stage := range []string{"corpus.generate", "specdoc.render", "specdoc.parse", "dedup.dedup",
		"classify.classify", "annotate.protocol", "annotate.propagate", "timeline.timeline"} {
		span(stage+"_ms", stage)
	}
	rep, reg := b.lastRep, b.lastReg
	pl["dedup.reviewed_pairs"] = metric{Value: float64(len(rep.Dedup.Reviewed)), Unit: "count", n: 1}
	pl["dedup.confirmed_pairs"] = metric{Value: float64(rep.Dedup.ConfirmedPairs), Unit: "count", n: 1}
	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	hits, misses := counter("rememberr_classify_memo_hits_total"), counter("rememberr_classify_memo_misses_total")
	pl["classify.memo_hit_ratio"] = metric{Value: hits / math.Max(hits+misses, 1), Unit: "ratio", n: int(hits + misses)}
	conf, cands := counter("rememberr_classify_prefilter_confirmed_total"), counter("rememberr_classify_prefilter_candidates_total")
	pl["classify.prefilter_confirm_ratio"] = metric{Value: conf / math.Max(cands, 1), Unit: "ratio", n: int(cands)}

	handler := b.tr.readHandlerMS()
	pl["serve.handler_p50_us"] = metric{Value: percentile(handler, 50) * 1000, Unit: "us", n: len(handler)}
	pl["serve.handler_p90_us"] = metric{Value: percentile(handler, 90) * 1000, Unit: "us", n: len(handler)}
	transport := b.tr.transportMS()
	pl["http.transport_us"] = metric{Value: median(transport) * 1000, Unit: "us", n: len(transport)}
	pl["serve.cache_hit_ratio"] = metric{Value: hitRatio(tph), Unit: "ratio", n: int(tph.cacheHits + tph.cacheMisses)}

	urls := append([]string{b.first.url()}, w.readURLs()...)
	allocs, bytesPer, err := allocsPerRead(h.srv.Handler(), urls)
	if err != nil {
		return nil, err
	}
	pl["serve.allocs_per_read"] = metric{Value: allocs, Unit: "count", n: len(urls)}
	pl["serve.bytes_per_read"] = metric{Value: bytesPer, Unit: "bytes", n: len(urls)}

	if err := b.replayIndex(w, h); err != nil {
		return nil, err
	}
	q, ts := b.tr.durations("index.query"), b.tr.durations("index.title_scan")
	pl["index.query_us"] = metric{Value: median(q) * 1000, Unit: "us", n: len(q)}
	pl["index.title_scan_us"] = metric{Value: median(ts) * 1000, Unit: "us", n: len(ts)}

	untraced, traced := median(append([]float64(nil), ph.lat...)), median(append([]float64(nil), tph.lat...))
	pl["trace.overhead_pct"] = metric{Value: (traced/untraced - 1) * 100, Unit: "%", n: len(tph.lat),
		note: fmt.Sprintf(" (op p50 traced %.6g ms, untraced %.6g ms)", traced, untraced)}

	doc := map[string]any{"workload": b.workload, "seed": b.seed, "per_layer": pl}
	if recs := h.ingests; len(recs) > 0 {
		doc["ingest"] = ingestLayers(recs)
	}
	path := filepath.Join(b.dir, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))
	if err := b.tr.write(path, doc); err != nil {
		return nil, err
	}
	layers := b.tr.selfTimes()
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lt := layers[name]
		fmt.Printf("layer %-28s count %7d mean %12.6f ms self %12.6f ms\n", name, lt.Count, lt.MeanMS, lt.SelfMS)
	}
	fmt.Printf("trace written to %s\n", path)
	return pl, nil
}

// ingestLayers summarizes the traced ingests. It also prints them: they
// exist on ingest-mixed only, while the JSON line carries the metrics
// every workload has.
func ingestLayers(recs []ingestRecord) map[string]float64 {
	var apply, merge, swap []float64
	var errata, relabeled, reordered int
	for _, r := range recs {
		apply = append(apply, ms(r.apply.Nanoseconds()))
		merge = append(merge, ms(r.merge.Nanoseconds()))
		swap = append(swap, ms(r.swap.Nanoseconds()))
		errata += r.errata
		relabeled += r.relabeled
		reordered += r.reordered
	}
	n := float64(len(recs))
	out := map[string]float64{
		"ingest.apply_ms":          median(apply),
		"index.merge_delta_ms":     median(merge),
		"serve.swap_delta_ms":      median(swap),
		"ingest.errata_per_doc":    float64(errata) / n,
		"ingest.relabeled_per_doc": float64(relabeled) / n,
		"ingest.reordered_per_doc": float64(reordered) / n,
	}
	for _, k := range []string{"ingest.apply_ms", "index.merge_delta_ms", "serve.swap_delta_ms",
		"ingest.errata_per_doc", "ingest.relabeled_per_doc", "ingest.reordered_per_doc"} {
		fmt.Printf("ingest-layer %-26s %14.6g samples %d\n", k, out[k], len(recs))
	}
	return out
}

// discardWriter is a ResponseWriter that keeps only the status, so
// that the allocation replay counts the handler's allocations alone.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

// allocsPerRead serves urls through the Handler in this goroutine and
// returns the heap allocations and bytes allocated per request.
func allocsPerRead(hd http.Handler, urls []string) (float64, float64, error) {
	reqs := make([]*http.Request, len(urls))
	for i, u := range urls {
		reqs[i] = httptest.NewRequest("GET", u, nil)
	}
	w := &discardWriter{h: http.Header{}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		clear(w.h)
		w.status = 200
		hd.ServeHTTP(w, r)
		if w.status != 200 {
			return 0, 0, fmt.Errorf("allocation replay: %s answered %d", r.URL, w.status)
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(reqs))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

// indexSink keeps replayed query results reachable.
var indexSink int

// replayIndex times the workload's filters through the index query API
// on the index the server answers from: the ingester's merged index on
// ingest-mixed, otherwise the index built from the store file's
// postings as serve.New builds it. Each title filter is also timed as a
// bare title scan.
func (b *bench) replayIndex(w workload, h *host) error {
	fs := append([]filter{b.first}, w.filters()...)
	var ix *index.Index
	if b.workload == "ingest-mixed" {
		_, ix = h.ing.Snapshot()
	} else {
		rd, err := store.Open(b.path)
		if err != nil {
			return err
		}
		defer rd.Close()
		sv, ok := rd.(*store.StoreV2)
		if !ok {
			return fmt.Errorf("%s is not a v2 store", b.path)
		}
		db, err := sv.Database()
		if err != nil {
			return err
		}
		if ix, err = index.FromLists(db, sv.IndexLists()); err != nil {
			return err
		}
	}
	for n := 0; n < 500; {
		for _, f := range fs {
			sp := b.tr.begin("index.query", -1)
			indexSink += len(f.apply(ix))
			b.tr.end(sp)
			if f.title != "" {
				sp = b.tr.begin("index.title_scan", -1)
				indexSink += len(ix.Query().TitleContains(f.title).Unique())
				b.tr.end(sp)
			}
			n++
		}
	}
	return nil
}
