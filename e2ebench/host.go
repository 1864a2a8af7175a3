package main

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	rememberr "repro"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/pkg/domain"
)

// host is the program as errserve runs it, inside the benchmark
// process: a v2 store opened through store.Open (memory-mapped), an
// ingester seeded from it, serve.New's Handler on a 127.0.0.1 listener,
// and one keep-alive client connection.
type host struct {
	srv *serve.Server
	hs  *http.Server
	cl  *client
	tr  *tracer

	served chan error

	// ingMu serializes each Apply with its SwapDelta, as errserve's
	// doIngest does, so snapshots install in application order.
	ingMu sync.Mutex
	ing   *ingest.Ingester
	// ingests records what each applied document changed.
	ingests []ingestRecord
}

type ingestRecord struct {
	errata, relabeled, reordered int
	apply, merge, swap           time.Duration
}

// spanKey carries the handler span's ID from the traced-run middleware
// to doIngest through the request context.
type spanKey struct{}

// openHost starts serving the store file at path. With tr set, the
// handler is wrapped in a middleware that records a serve.handler span
// while tr is on, and the set-up steps are recorded under parent.
func openHost(path string, par int, tr *tracer, parent int) (*host, error) {
	h := &host{tr: tr, served: make(chan error, 1)}

	sp := tr.begin("store.open", parent)
	rd, err := store.Open(path)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if !rd.Mapped() || rd.Format() != store.FormatVersion2 {
		rd.Close()
		return nil, fmt.Errorf("store %s opened as format %d mapped=%v, want a mapped v2 store", path, rd.Format(), rd.Mapped())
	}

	sp = tr.begin("ingest.new_from", parent)
	db, err := rd.Database()
	if err != nil {
		rd.Close()
		return nil, err
	}
	h.ing = ingest.NewFrom(db, ingest.Options{Parallelism: par})
	tr.end(sp)

	sp = tr.begin("serve.new", parent)
	h.srv, err = serve.New(serve.WithStore(rd), serve.Options{Ingest: h.doIngest})
	tr.end(sp)
	// The snapshot holds its own reference to the mapping.
	if cerr := rd.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	sp = tr.begin("net.listen", parent)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := h.srv.Handler()
	if tr != nil {
		handler = h.middleware(handler)
	}
	h.hs = &http.Server{Handler: handler}
	go func() { h.served <- h.hs.Serve(ln) }()
	h.cl, err = dial(ln.Addr().String())
	tr.end(sp)
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// middleware records one serve.handler span per request, parented
// under the client span named in the X-Bench-Span header.
func (h *host) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.tr.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent := -1
		if v := r.Header.Get("X-Bench-Span"); v != "" {
			parent, _ = strconv.Atoi(v)
		}
		id := h.tr.begin("serve.handler", parent)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		h.tr.end(id)
	})
}

// doIngest is errserve's ingest wiring: Apply, then SwapDelta, under
// one mutex.
func (h *host) doIngest(ctx context.Context, text string) (serve.IngestSummary, error) {
	h.ingMu.Lock()
	defer h.ingMu.Unlock()
	parent := -1
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		parent = id
	}
	t0 := time.Now()
	res, err := h.ing.Apply([]string{text})
	t1 := time.Now()
	if err != nil {
		return serve.IngestSummary{}, err
	}
	sum := serve.IngestSummary{Documents: res.Docs, Errata: res.Errata, Skipped: res.Skipped}
	if res.Changed {
		sum.Generation = h.srv.SwapDelta(res.DB)
	} else {
		sum.Generation = h.srv.Generation()
	}
	t2 := time.Now()
	if h.tr != nil && h.tr.on.Load() {
		ap := h.tr.record("ingest.apply", parent, t0, t1)
		// Apply reports the merge's duration, not its start; the merge
		// is Apply's last step, so the span is placed at its end.
		h.tr.record("index.merge_delta", ap, t1.Add(-res.MergeDuration), t1)
		h.tr.record("serve.swap_delta", parent, t1, t2)
		h.ingests = append(h.ingests, ingestRecord{
			errata: res.Errata, relabeled: res.Relabeled, reordered: res.Reordered,
			apply: t1.Sub(t0), merge: res.MergeDuration, swap: t2.Sub(t1),
		})
	}
	return sum, nil
}

// close stops the server and waits for it to exit. serve.Server has no
// Close; swapping in an empty database is the public way to drop the
// snapshot's reference to the mapped store, so that the mapping of a
// host torn down mid-run does not stay in the process's RSS.
func (h *host) close() error {
	var errs []error
	if h.cl != nil {
		errs = append(errs, h.cl.close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, h.hs.Shutdown(ctx))
	if err := <-h.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	h.srv.Swap(&domain.Database{Docs: map[string]*domain.Document{}, Scheme: rememberr.BaseScheme()})
	return errors.Join(errs...)
}

// refCheck compares every distinct response of a run, once, with the
// answer of a reference server that the timed code does not produce: a
// heap-backed server built from the in-memory database with its cache
// disabled. Within the run, every repeat of a URL must return the same
// bytes as its first answer.
type refCheck struct {
	ref   http.Handler
	seed  maphash.Seed
	first map[string]uint64
	diffs []string
}

func newRefCheck(db *domain.Database) (*refCheck, error) {
	srv, err := serve.New(serve.WithDatabase(db), serve.WithCacheSize(-1))
	if err != nil {
		return nil, err
	}
	return &refCheck{ref: srv.Handler(), seed: maphash.MakeSeed(), first: make(map[string]uint64)}, nil
}

// observe records a response body; it reports false when the URL was
// answered before with different bytes.
func (c *refCheck) observe(url string, body []byte) bool {
	h := maphash.Bytes(c.seed, body)
	if prev, ok := c.first[url]; ok {
		if prev != h {
			c.diffs = append(c.diffs, url+": differs from its first answer in this run")
			return false
		}
		return true
	}
	c.first[url] = h
	return true
}

// reference answers url from the reference server.
func (c *refCheck) reference(url string) (int, []byte) {
	rec := httptest.NewRecorder()
	c.ref.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Code, rec.Body.Bytes()
}

// verify compares the first answer of every observed URL with the
// reference and returns the number compared.
func (c *refCheck) verify() (int, error) {
	urls := make([]string, 0, len(c.first))
	for u := range c.first {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		code, body := c.reference(u)
		if code != http.StatusOK || maphash.Bytes(c.seed, body) != c.first[u] {
			c.diffs = append(c.diffs, fmt.Sprintf("%s: differs from the reference (reference status %d)", u, code))
		}
	}
	if len(c.diffs) > 0 {
		return len(urls), fmt.Errorf("%d responses wrong, first: %s", len(c.diffs), c.diffs[0])
	}
	return len(urls), nil
}
