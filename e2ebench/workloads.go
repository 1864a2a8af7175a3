package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	rememberr "repro"
	"repro/internal/corpus"
	"repro/internal/specdoc"
	"repro/internal/store"
)

// workload is one traffic mix. inputs generates the operation list of
// one pass from the seed; it runs inside set-up. warmup runs the ops
// whose results are discarded, and pass replays the whole list once,
// recording into ph.
type workload interface {
	inputs(b *bench) error
	warmup(b *bench, h *host, ph *phase)
	pass(b *bench, h *host, ph *phase)
	// readURLs and filters are the GET URLs and the distinct
	// /v1/errata filters of one pass, replayed by the traced run.
	readURLs() []string
	filters() []filter
}

var workloads = map[string]func() workload{
	"query-hot":    func() workload { return &queryWorkload{hot: true} },
	"query-cold":   func() workload { return &queryWorkload{} },
	"ingest-mixed": func() workload { return &ingestWorkload{} },
	"build-cold":   func() workload { return &buildWorkload{} },
}

// phase accumulates one measured phase.
type phase struct {
	lat       []float64 // ms per operation of the workload's class; +Inf for a failed one
	reads     []float64 // ms per read that follows an ingest (ingest-mixed)
	attempted int
	failed    int
	failures  []string
	cpu       time.Duration // process CPU time over the phase

	// cache counts the response cache's hits and misses during the phase.
	cacheHits, cacheMisses int64
	// buildMS and openMS split a build-cold cycle into the cold build
	// (Build plus EncodeV2) and the cold open (store.Open to first
	// answer); dedupNS/buildNS sum the builds' dedup and total spans.
	buildMS, openMS  []float64
	dedupNS, buildNS int64
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// get sends one read and checks its status; the latency in ms is +Inf
// when the read failed.
func get(b *bench, h *host, u string, ph *phase) ([]byte, float64) {
	sp := b.tr.begin("client.get", -1)
	t0 := time.Now()
	status, body, err := h.cl.get(u, sp)
	d := time.Since(t0)
	b.tr.end(sp)
	ph.attempted++
	if err != nil || status != 200 {
		ph.fail("GET %s: status %d, %v", u, status, err)
		return nil, math.Inf(1)
	}
	return body, ms(d.Nanoseconds())
}

func cacheCounts(h *host) (int64, int64) {
	c := h.srv.Metrics().Cache
	return c.Hits, c.Misses
}

// queryWorkload is query-hot or query-cold: a fixed list of GETs
// replayed in whole passes over one connection.
type queryWorkload struct {
	hot  bool
	urls []string
	fs   []filter
}

const (
	hotRequests  = 2000 // GETs per query-hot pass
	hotKeys      = 200  // point-lookup keys, Zipf-skewed
	hotPages     = 20   // filtered pages
	coldRequests = 3000 // distinct filters per query-cold pass, far beyond the 256-entry cache
)

func (w *queryWorkload) inputs(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	if !w.hot {
		// One in twenty filters is a title substring filter.
		fs, err := distinctFilters(rng, b.voc, coldRequests, 20)
		if err != nil {
			return err
		}
		w.fs = fs
		w.urls = make([]string, len(w.fs))
		for i, f := range w.fs {
			w.urls[i] = f.url()
		}
		return nil
	}
	keys := make([]string, 0, hotKeys)
	for _, i := range rng.Perm(len(b.voc.keys)) {
		if len(keys) == hotKeys {
			break
		}
		keys = append(keys, "/v1/errata/"+url.PathEscape(b.voc.keys[i]))
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	pages, err := distinctFilters(rng, b.voc, hotPages-2, 0)
	if err != nil {
		return err
	}
	titles, err := distinctFilters(rng, b.voc, 2, 1)
	if err != nil {
		return err
	}
	w.fs = append(pages, titles...)
	w.urls = make([]string, hotRequests)
	for i := range w.urls {
		switch r := rng.Float64(); {
		case r < 0.70:
			w.urls[i] = keys[zipf.Uint64()]
		case r < 0.95:
			w.urls[i] = w.fs[rng.Intn(len(w.fs))].url()
		default:
			w.urls[i] = "/v1/stats"
		}
	}
	return nil
}

// warmup runs one pass, which fills the cache on query-hot.
func (w *queryWorkload) warmup(b *bench, h *host, ph *phase) { w.pass(b, h, ph) }

func (w *queryWorkload) pass(b *bench, h *host, ph *phase) {
	hits, misses := cacheCounts(h)
	for _, u := range w.urls {
		body, lat := get(b, h, u, ph)
		if body != nil && !b.ref.observe(u, body) {
			ph.fail("GET %s: answer changed within the run", u)
			lat = math.Inf(1)
		}
		ph.lat = append(ph.lat, lat)
	}
	h2, m2 := cacheCounts(h)
	ph.cacheHits += h2 - hits
	ph.cacheMisses += m2 - misses
}

func (w *queryWorkload) readURLs() []string { return w.urls }
func (w *queryWorkload) filters() []filter  { return w.fs }

// ingestWorkload is ingest-mixed: each step POSTs a revised document
// for an existing document key, then sends a fixed set of reads that
// includes ?doc=<key>.
type ingestWorkload struct {
	docs   []map[string]string // rendered documents per corpus seed, by key
	steps  []ingestStep
	cursor int
	gen    uint64
}

type ingestStep struct {
	key   string
	text  []byte
	reads []filter // reads[0] is the ?doc=<key> count read
}

// ingestSeeds is the number of corpus seeds (seed+1, ...) rendered into
// replacement documents. With two or more, every POST replaces a
// document's live text with a different one, so none is skipped.
const (
	ingestSeeds    = 2
	ingestVocab    = 16 // filtered pages the step reads draw from
	readsPerIngest = 8
)

func (w *ingestWorkload) inputs(b *bench) error {
	if w.docs == nil {
		// Rendering the documents is the benchmark's own input
		// generation and costs several times a serving set-up, so it
		// runs once; setup_s is the median of the set-ups, which leaves
		// the first one out.
		for i := int64(1); i <= ingestSeeds; i++ {
			gt, err := corpus.Generate(b.seed + i)
			if err != nil {
				return err
			}
			w.docs = append(w.docs, specdoc.WriteAll(gt.DB, specdoc.WriteOptions{}))
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	vocab, err := distinctFilters(rng, b.voc, ingestVocab, 0)
	if err != nil {
		return err
	}
	w.steps = w.steps[:0]
	for _, texts := range w.docs {
		keys := make([]string, 0, len(texts))
		for k := range texts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			reads := []filter{
				{doc: k, all: true, limit: 1},
				{doc: k, limit: 20},
			}
			for j := 0; j < readsPerIngest-3; j++ {
				reads = append(reads, vocab[rng.Intn(len(vocab))])
			}
			reads = append(reads, filter{title: pick(rng, b.voc.words), limit: 10})
			w.steps = append(w.steps, ingestStep{key: k, text: []byte(texts[k]), reads: reads})
		}
	}
	w.cursor = 0
	return nil
}

// warmup runs the first step.
func (w *ingestWorkload) warmup(b *bench, h *host, ph *phase) {
	w.gen = h.srv.Generation()
	w.step(b, h, ph)
}

func (w *ingestWorkload) pass(b *bench, h *host, ph *phase) {
	for range w.steps {
		w.step(b, h, ph)
	}
}

// step POSTs one document and sends its reads. The POST is timed from
// send to the 200, at which point the document is installed; the
// ?doc=<key> read then checks that it is visible.
func (w *ingestWorkload) step(b *bench, h *host, ph *phase) {
	st := w.steps[w.cursor]
	w.cursor = (w.cursor + 1) % len(w.steps)
	hits, misses := cacheCounts(h)
	defer func() {
		h2, m2 := cacheCounts(h)
		ph.cacheHits += h2 - hits
		ph.cacheMisses += m2 - misses
	}()

	sp := b.tr.begin("client.post", -1)
	t0 := time.Now()
	status, body, err := h.cl.do("POST", "/v1/admin/ingest", st.text, sp)
	lat := ms(time.Since(t0).Nanoseconds())
	b.tr.end(sp)
	ph.attempted++
	var sum struct {
		Generation uint64 `json:"generation"`
		Documents  int    `json:"documents"`
		Errata     int    `json:"errata"`
		Skipped    int    `json:"skipped"`
	}
	if err == nil && status == 200 {
		err = json.Unmarshal(body, &sum)
	}
	switch {
	case err != nil || status != 200:
		ph.fail("POST %s: status %d, %v", st.key, status, err)
	case sum.Skipped != 0 || sum.Documents != 1:
		ph.fail("POST %s: skipped %d, documents %d; every POST must change the live text", st.key, sum.Skipped, sum.Documents)
	case sum.Generation != w.gen+1:
		ph.fail("POST %s: generation %d after %d, want one bump", st.key, sum.Generation, w.gen)
	default:
		w.gen = sum.Generation
		ph.lat = append(ph.lat, lat)
		w.reads(b, h, st, sum.Errata, ph)
		return
	}
	w.gen = h.srv.Generation()
	ph.lat = append(ph.lat, math.Inf(1))
	w.reads(b, h, st, -1, ph)
}

func (w *ingestWorkload) reads(b *bench, h *host, st ingestStep, errata int, ph *phase) {
	for i, f := range st.reads {
		body, lat := get(b, h, f.url(), ph)
		ph.reads = append(ph.reads, lat)
		if i != 0 || body == nil || errata < 0 {
			continue
		}
		var page struct {
			Total      int    `json:"total"`
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(body, &page); err != nil || page.Total != errata || page.Generation != w.gen {
			ph.fail("GET %s: total %d at generation %d, want the %d errata just ingested at %d (%v)",
				f.url(), page.Total, page.Generation, errata, w.gen, err)
		}
	}
}

func (w *ingestWorkload) readURLs() []string {
	var out []string
	for _, f := range w.filters() {
		out = append(out, f.url())
	}
	return out
}

func (w *ingestWorkload) filters() []filter {
	seen := map[string]bool{}
	var out []filter
	for _, st := range w.steps {
		for _, f := range st.reads {
			if u := f.url(); !seen[u] {
				seen[u] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// buildWorkload is build-cold: each op is a cold rememberr.Build with no
// pipeline cache, store.EncodeV2, and a cold open of the new file
// through to the first verified answer.
type buildWorkload struct{ ops int }

func (w *buildWorkload) inputs(*bench) error { return nil }

func (w *buildWorkload) warmup(b *bench, h *host, ph *phase) { w.pass(b, h, ph) }

func (w *buildWorkload) pass(b *bench, _ *host, ph *phase) {
	w.ops++
	root := b.tr.begin("op.cold_cycle", -1)
	t0 := time.Now()
	ph.attempted++
	db, rep, err := b.build(root)
	var raw []byte
	if err == nil {
		sp := b.tr.begin("store.encode_v2", root)
		raw, err = store.EncodeV2(db.Core(), v2Options)
		b.tr.end(sp)
	}
	tBuild := time.Since(t0)
	if err == nil {
		err = checkBuild(db, rep)
	}
	if err == nil && !bytes.Equal(raw, b.v2) {
		err = fmt.Errorf("v2 bytes differ from the run's first build")
	}
	if err != nil {
		ph.fail("cold build %d: %v", w.ops, err)
		ph.lat = append(ph.lat, math.Inf(1))
		b.tr.end(root)
		return
	}
	ph.dedupNS += stageNS(rep.Trace, "dedup")
	ph.buildNS += rep.Trace.DurationNS

	path := filepath.Join(b.dir, fmt.Sprintf("cold-%d-%d.v2", os.Getpid(), w.ops))
	sp := b.tr.begin("store.write", root)
	err = os.WriteFile(path, raw, 0o644)
	b.tr.end(sp)
	tOpen := time.Now()
	var h *host
	if err == nil {
		h, err = openHost(path, b.par, b.tr, root)
	}
	if err == nil {
		err = b.firstAnswer(h, root)
	}
	tEnd := time.Now()
	b.tr.end(root)
	if h != nil {
		hits, misses := cacheCounts(h)
		ph.cacheHits += hits
		ph.cacheMisses += misses
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}
	os.Remove(path)
	if err != nil {
		ph.fail("cold open %d: %v", w.ops, err)
		ph.lat = append(ph.lat, math.Inf(1))
		return
	}
	ph.lat = append(ph.lat, ms(tEnd.Sub(t0).Nanoseconds()))
	ph.buildMS = append(ph.buildMS, ms(tBuild.Nanoseconds()))
	ph.openMS = append(ph.openMS, ms(tEnd.Sub(tOpen).Nanoseconds()))
}

func (w *buildWorkload) readURLs() []string { return nil }
func (w *buildWorkload) filters() []filter  { return nil }

// stageNS returns the duration of the named direct child of a build's
// stage tree.
func stageNS(tr *rememberr.TraceSpan, name string) int64 {
	for _, c := range tr.Children {
		if c.Name == name {
			return c.DurationNS
		}
	}
	return 0
}
