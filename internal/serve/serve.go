// Package serve exposes a loaded RemembERR database over an HTTP JSON
// API — the serving layer for the paper's released-database use case.
// The API is versioned under /v1; operational endpoints stay at the
// root:
//
//	GET /v1/errata        filtered query (see index.FilterTable and parseFilters)
//	GET /v1/errata/{key}  every occurrence of one deduplicated erratum
//	GET /v1/stats         corpus statistics
//	GET /v1/metrics.json  JSON snapshot of the server's instruments
//	GET /healthz          liveness probe
//	GET /metrics          Prometheus text exposition (whole registry)
//
// The legacy unversioned paths (/errata, /errata/{key}, /stats) answer
// with 308 Permanent Redirect to their /v1 equivalents, preserving the
// query string, so pre-v1 clients keep working.
//
// Queries execute on the inverted index (internal/index), results are
// memoized in an LRU cache keyed by the canonicalized filter set, and
// every endpoint records request/error counters plus a latency
// histogram into a single obs registry (rememberr_http_*). Passing a
// shared registry via Options.Observability folds build-pipeline and
// index metrics into the same /metrics page.
//
// Responses of /v1/errata and /v1/errata/{key} are stitched from the
// snapshot's precomputed JSON fragments (store.Fragments), never
// marshaled per request; the tests hold them byte-identical to
// json.Marshal of the store DTOs.
//
// The server holds its data behind an atomically swappable snapshot —
// an immutable (database, index, generation) triple. Swap installs a
// new snapshot with zero downtime: each request loads the pointer once
// and works against that generation for its whole lifetime, so no
// request ever observes a torn state, and in-flight requests on the old
// generation finish unperturbed. Response-cache entries are keyed by
// generation, so a swap implicitly invalidates the cache without a
// stop-the-world flush and a stale entry is never served for a newer
// generation. The server is safe for arbitrary concurrency: snapshots
// are immutable, the cache is mutex-guarded, and the instruments are
// lock-free.
//
// Reload and Ingest, the two writers of the served state, run their
// callbacks one at a time in one commit order, so an ingest that
// arrives during a reload lands on the reloaded snapshot: a reload
// drops documents acknowledged before it began, unless its source holds
// them, and never drops one acknowledged after it.
//
// Every request has a deadline, Options.RequestTimeout after its
// handler starts, enforced without a goroutine, timer or context per
// request: a handler runs inline on its connection's goroutine, and one
// whose first write comes after the deadline answers 503
// {"error":"request timed out"} instead. Reload and ingest, which call
// user callbacks, pass the deadline on as a context deadline. The
// transport bounds slow clients: Serve reads each request within
// RequestTimeout and writes each response within RequestTimeout plus a
// fixed grace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/pkg/domain"
)

// Options configures the server.
type Options struct {
	// CacheSize is the LRU capacity in cached responses. 0 selects the
	// default 256; negative disables caching.
	CacheSize int
	// RequestTimeout is each request's deadline, counted from when its
	// handler starts. It covers the handler's first write: a handler
	// that writes later answers 503 {"error":"request timed out"}
	// instead. Reload and ingest get it as their callbacks' context
	// deadline. Serve's transport reads each request within
	// RequestTimeout and writes each response within RequestTimeout
	// plus a fixed grace. 0 selects the default 10s.
	RequestTimeout time.Duration
	// Observability is the registry receiving the server's instruments.
	// nil selects a fresh private registry, so /metrics always works;
	// pass the registry used for the build to expose its metrics too.
	Observability *obs.Registry
	// EnableProfiling mounts net/http/pprof under /debug/pprof/,
	// outside instrument, so no request deadline applies (profiles
	// legitimately run longer than API requests), and moves the
	// connection's write deadline past the requested profile.
	EnableProfiling bool
	// Reloader, when non-nil, installs a fresh snapshot for
	// POST /v1/admin/reload (and Server.Reload) and returns its
	// generation: typically a warm pipeline rebuild handed to Swap, or a
	// reopened store file handed to SwapReader. It runs in the commit
	// order, so it must not call Reload or Ingest. When nil, the reload
	// endpoint answers 501 Not Implemented. Over HTTP, ctx ends at the
	// request deadline: a callback that gives up installs nothing and
	// returns ctx's error, and the endpoint answers 503.
	Reloader func(ctx context.Context) (uint64, error)
	// Ingest, when non-nil, applies one specification-update document
	// text to the live corpus for POST /v1/admin/ingest (and
	// Server.Ingest): typically a closure over an ingest.Ingester whose
	// Apply feeds Server.SwapDelta. It runs in the commit order, so it
	// needs no lock of its own and must not call Reload or Ingest. ctx
	// ends at the request deadline: a callback that sees it expire before
	// committing installs nothing and returns ctx's error, and the
	// endpoint answers 503; once it has committed it returns its summary,
	// and the endpoint answers 200 however late. When nil, the ingest
	// endpoint answers 501 Not Implemented.
	Ingest func(ctx context.Context, text string) (IngestSummary, error)
}

// IngestSummary reports what one POST /v1/admin/ingest changed.
type IngestSummary struct {
	// Generation is the snapshot generation now serving the document.
	Generation uint64 `json:"generation"`
	// Documents is the number of documents added or replaced.
	Documents int `json:"documents"`
	// Errata is the entry count of the documents ingested.
	Errata int `json:"errata"`
	// Skipped is the number of documents dropped as byte-identical to
	// the already-served version.
	Skipped int `json:"skipped"`
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 10 * time.Second
	}
	return o
}

// endpointInstruments holds one route's registry-backed instruments,
// resolved once at construction so the per-request path is lock-free.
type endpointInstruments struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// endpointNames lists every instrumented route; "redirect" aggregates
// the legacy unversioned paths.
var endpointNames = []string{
	"errata", "erratum", "stats", "healthz", "metrics", "metrics_json", "redirect",
	"admin_reload", "admin_ingest",
}

// snapshot is one immutable serving state: a database, its inverted
// index, its response fragments, the stats computed from the index, and a
// monotonically increasing generation id. Handlers load the current
// snapshot exactly once per request, so every response is internally
// consistent with a single generation even while Swap installs a new
// one mid-flight.
type snapshot struct {
	db    *domain.Database
	ix    *index.Index
	stats domain.Stats
	gen   uint64
	// frags holds the precomputed canonical JSON response fragments of
	// this snapshot's entries, one row per index ordinal, from which the
	// errata handlers stitch every response. Never nil; an entry without
	// a row (its DTO failed to marshal) answers 500.
	frags *store.Fragments
	// region is the mapped store region this snapshot's strings alias,
	// nil for heap-backed snapshots. The snapshot owns one reference;
	// handlers retain it for the request's lifetime (acquire/release)
	// so a swap-triggered release can never munmap under an in-flight
	// read.
	region *store.Region
}

// release drops the caller's retained region reference (no-op for
// heap-backed snapshots). Pairs with Server.acquireSnap.
func (sn *snapshot) release() {
	if sn != nil && sn.region != nil {
		sn.region.Release()
	}
}

// Server serves atomically swappable database snapshots.
type Server struct {
	snap  atomic.Pointer[snapshot]
	gen   atomic.Uint64
	opts  Options
	cache *lruCache
	reg   *obs.Registry

	// swapMu serializes snapshot installation so generation ids are
	// stored in increasing order; commitMu serializes whole reloads and
	// ingests (callback plus install), the one order in which they
	// change the served state.
	swapMu     sync.Mutex
	commitMu   sync.Mutex
	swaps      *obs.Counter
	deltaSwaps *obs.Counter
	swapLag    *obs.Histogram
	mergeLat   *obs.Histogram

	endpoints map[string]*endpointInstruments
}

// Option configures New. Exactly one data source must be supplied —
// WithDatabase or WithStore — plus any number of tuning options. A
// whole Options struct is itself an Option that replaces the full
// tuning configuration:
//
//	srv, err := serve.New(serve.WithDatabase(db), serve.Options{CacheSize: 1024})
type Option interface {
	applyOption(*config)
}

// config is the resolved New configuration: tuning options plus the
// single data source.
type config struct {
	opts Options
	db   *domain.Database
	st   store.Reader
}

// applyOption replaces the whole tuning configuration, making Options
// usable directly as an Option. Sources set by WithDatabase/WithStore
// are untouched.
func (o Options) applyOption(c *config) { c.opts = o }

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*config)

func (f optionFunc) applyOption(c *config) { f(c) }

// WithDatabase serves the given in-memory database: the index is built
// over it and fragments are precomputed. The caller must not mutate db
// afterwards.
func WithDatabase(db *domain.Database) Option {
	return optionFunc(func(c *config) { c.db = db })
}

// WithStore serves from an opened store reader. For a FormatVersion 2
// reader the database materializes from the file's records, index
// postings and response fragments load from the file where present,
// and — when the reader is mmap-backed — the serving snapshot retains
// the mapped region so the strings it aliases stay valid for as long
// as any snapshot or in-flight request uses them. The server takes its
// own region reference during New; the caller keeps ownership of r and
// should Close it when done handing it to servers (the mapping stays
// alive until the last snapshot referencing it is replaced).
func WithStore(r store.Reader) Option {
	return optionFunc(func(c *config) { c.st = r })
}

// WithCacheSize sets Options.CacheSize.
func WithCacheSize(n int) Option {
	return optionFunc(func(c *config) { c.opts.CacheSize = n })
}

// New returns a ready server serving generation 1 from the configured
// source. It errors when no source option was given, when both were
// given, or when a store source fails to materialize.
func New(opts ...Option) (*Server, error) {
	var c config
	for _, o := range opts {
		o.applyOption(&c)
	}
	switch {
	case c.db == nil && c.st == nil:
		return nil, errors.New("serve: New needs a data source (WithDatabase or WithStore)")
	case c.db != nil && c.st != nil:
		return nil, errors.New("serve: WithDatabase and WithStore are mutually exclusive")
	}
	s := newServer(c.opts)
	if c.st != nil {
		if _, err := s.SwapReader(c.st); err != nil {
			return nil, err
		}
		return s, nil
	}
	s.Swap(c.db)
	return s, nil
}

func newServer(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Observability
	if reg == nil {
		reg = obs.NewRegistry()
	}
	endpoints := make(map[string]*endpointInstruments, len(endpointNames))
	for _, name := range endpointNames {
		endpoints[name] = &endpointInstruments{
			requests: reg.Counter("rememberr_http_requests_total",
				"HTTP requests served, by endpoint.", obs.L("endpoint", name)),
			errors: reg.Counter("rememberr_http_errors_total",
				"HTTP responses with status >= 400, by endpoint.", obs.L("endpoint", name)),
			latency: reg.Histogram("rememberr_http_request_duration_seconds",
				"HTTP request latency, by endpoint.", obs.LatencyBuckets, obs.L("endpoint", name)),
		}
	}
	cache := newLRUCache(opts.CacheSize,
		reg.Counter("rememberr_cache_hits_total", "Query-cache hits."),
		reg.Counter("rememberr_cache_misses_total", "Query-cache misses."),
		reg.Counter("rememberr_cache_evictions_total", "Query-cache capacity evictions."))
	reg.GaugeFunc("rememberr_cache_entries", "Query-cache resident entries.",
		func() float64 { return float64(cache.entries()) })
	reg.Gauge("rememberr_cache_capacity", "Query-cache capacity.").Set(float64(opts.CacheSize))
	s := &Server{
		opts:      opts,
		cache:     cache,
		reg:       reg,
		endpoints: endpoints,
	}
	s.swaps = reg.Counter("rememberr_snapshot_swaps_total",
		"Database snapshot installations (including the initial one).")
	s.deltaSwaps = reg.Counter("rememberr_snapshot_delta_swaps_total",
		"Snapshot installations that went through the delta-merge path.")
	s.swapLag = reg.Histogram("rememberr_ingest_swap_lag_seconds",
		"Latency from delta-swap start (index merge) to snapshot visibility.",
		obs.LatencyBuckets)
	s.mergeLat = reg.Histogram("rememberr_ingest_merge_duration_seconds",
		"Delta index merge latency per delta swap.", obs.LatencyBuckets)
	reg.GaugeFunc("rememberr_snapshot_generation", "Currently served snapshot generation.",
		func() float64 {
			if snap := s.snap.Load(); snap != nil {
				return float64(snap.gen)
			}
			return 0
		})
	return s
}

// Swap atomically installs db as the served snapshot and returns its
// generation id. The index and fragments are built and the stats
// counted from the index before the pointer flips, so requests only
// ever see complete snapshots; in-flight requests on the previous
// generation finish against it undisturbed, and response-cache entries
// of older generations are never served again (keys are
// generation-scoped). The caller must not mutate db after Swap.
func (s *Server) Swap(db *domain.Database) uint64 {
	ix := index.Build(db)
	snap := &snapshot{db: db, ix: ix, stats: ix.Stats(), frags: fragmentsOf(db)}
	snap.ix.Instrument(s.reg)
	s.install(snap)
	return snap.gen
}

// fragmentsOf builds the response fragments of db (whose error is
// always nil).
func fragmentsOf(db *domain.Database) *store.Fragments {
	frags, _ := store.BuildFragments(db)
	return frags
}

// install assigns snap the next generation and makes it the served
// snapshot, then drops the server's reference on the displaced
// snapshot's region. The release happens outside swapMu and after the
// pointer flip, so a last-reference munmap never runs while readers
// could still load the old snapshot without having retained it.
func (s *Server) install(snap *snapshot) {
	s.swapMu.Lock()
	snap.gen = s.gen.Add(1)
	prev := s.snap.Load()
	s.snap.Store(snap)
	s.swapMu.Unlock()
	prev.release()
	s.swaps.Inc()
}

// SwapReader installs the contents of an opened store reader as the
// served snapshot. A FormatVersion 2 reader serves off its own bytes:
// index postings and response fragments load from the file where
// present. When the reader is mmap-backed the new snapshot
// retains the mapped region (the caller's reference stays the
// caller's; Close remains its job), so the mapping outlives every
// snapshot and in-flight request that aliases it. Readers of other
// formats materialize their database and take the plain Swap path.
func (s *Server) SwapReader(r store.Reader) (uint64, error) {
	sv, ok := r.(*store.StoreV2)
	if !ok {
		db, err := r.Database()
		if err != nil {
			return 0, err
		}
		return s.Swap(db), nil
	}
	region := sv.Region()
	if region != nil && !region.TryRetain() {
		return 0, errors.New("serve: store is closed")
	}
	snap, err := s.buildStoreSnapshot(sv)
	if err != nil {
		if region != nil {
			region.Release()
		}
		return 0, err
	}
	snap.region = region
	s.install(snap)
	return snap.gen, nil
}

// buildStoreSnapshot assembles the (un-installed, generation-less)
// snapshot for a FormatVersion 2 store.
func (s *Server) buildStoreSnapshot(sv *store.StoreV2) (*snapshot, error) {
	db, err := sv.Database()
	if err != nil {
		return nil, err
	}
	snap := &snapshot{db: db}
	if l := sv.IndexLists(); l != nil {
		// Postings stay disk-resident: the index walks the file's
		// arrays (or the mapping) directly via index.List spans.
		if snap.ix, err = index.FromLists(db, l); err != nil {
			return nil, err
		}
	} else {
		snap.ix = index.Build(db)
	}
	snap.ix.Instrument(s.reg)
	snap.stats = snap.ix.Stats()
	if snap.frags = sv.Fragments(); snap.frags == nil {
		snap.frags = fragmentsOf(db)
	}
	return snap, nil
}

// SwapDelta installs db as the served snapshot by merging against the
// currently served one instead of rebuilding from scratch. db must
// honor the delta sharing contract with the currently served database
// (see index.MergeDelta): any *Erratum shared by pointer is completely
// unchanged, surviving entries keep their relative order.
// internal/ingest's copy-on-write Apply produces exactly such
// databases, and leaves their index merge to SwapDelta.
//
// Every per-snapshot table shares the index's ordinals, so the install
// costs O(batch) apart from integer work over the survivors:
// index.MergeDelta merges the previous postings tables with the fresh
// entries' without hashing, sharing every list the remap leaves
// unchanged, the fragment rows of survivors are carried through the
// same remap and only fresh entries' rows are appended, and the stats
// are counted from the merged index's unique-representative list. No
// map keyed by entry, no db.Unique() and no db.ComputeStats() runs here
// (TestSwapDeltaAllocs gates the allocations by the batch size).
//
// Unlike Swap, the merge runs under swapMu: the previous snapshot must
// still be the installed one when the merged successor lands, otherwise
// two concurrent delta swaps could each merge against the same
// predecessor and the loser would silently drop the winner's documents.
// The caller must not mutate db after SwapDelta.
func (s *Server) SwapDelta(db *domain.Database) uint64 {
	start := time.Now()
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	prev := s.snap.Load()
	t0 := time.Now()
	ix, remap := index.MergeDelta(prev.ix, db)
	s.mergeLat.Observe(time.Since(t0).Seconds())
	ix.Instrument(s.reg)
	snap := &snapshot{db: db, ix: ix, stats: ix.Stats()}
	snap.frags, _ = store.BuildFragmentsDelta(prev.frags, ix, remap) // the error is always nil
	if prev.region != nil {
		// The delta database shares surviving entries by pointer with the
		// previous snapshot, so its strings may alias the mapping: the
		// successor must keep the region alive. prev is the installed
		// snapshot and owns a reference, so the retain cannot race a
		// final release.
		prev.region.TryRetain()
		snap.region = prev.region
	}
	snap.gen = s.gen.Add(1)
	s.snap.Store(snap)
	// Drop the displaced snapshot's own region reference; the successor
	// holds the one retained above, so the mapping cannot reach zero
	// here.
	prev.release()
	s.swaps.Inc()
	s.deltaSwaps.Inc()
	s.swapLag.Observe(time.Since(start).Seconds())
	return snap.gen
}

// Generation returns the generation id of the currently served
// snapshot.
func (s *Server) Generation() uint64 { return s.snap.Load().gen }

// Stats returns the precomputed corpus statistics of the currently
// served snapshot — the same numbers /v1/stats reports, without a
// request (and, for store-backed servers, without decoding anything).
func (s *Server) Stats() domain.Stats { return s.snap.Load().stats }

// acquireSnap loads the current snapshot and, when it is backed by a
// mapped region, retains the region for the caller. The retry loop
// closes the race where a swap displaces the loaded snapshot and
// releases its region (possibly unmapping it) between the Load and the
// retain: a failed TryRetain means the snapshot is already dead, so
// the caller simply loads the successor. Callers must release() the
// returned snapshot when done.
func (s *Server) acquireSnap() *snapshot {
	for {
		sn := s.snap.Load()
		if sn == nil || sn.region == nil || sn.region.TryRetain() {
			return sn
		}
	}
}

// Reload installs a fresh snapshot through Options.Reloader, in the
// commit order, and returns its generation. It errors when no reloader
// is configured, ctx ended or the callback fails.
func (s *Server) Reload(ctx context.Context) (uint64, error) {
	if s.opts.Reloader == nil {
		return 0, errors.New("serve: no reloader configured")
	}
	gen, err := commit(s, ctx, s.opts.Reloader)
	if err != nil {
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	return gen, nil
}

// Ingest applies one specification-update document text through
// Options.Ingest, in the commit order, and returns what it changed.
func (s *Server) Ingest(ctx context.Context, text string) (IngestSummary, error) {
	if s.opts.Ingest == nil {
		return IngestSummary{}, errors.New("serve: no ingest configured")
	}
	return commit(s, ctx, func(ctx context.Context) (IngestSummary, error) {
		return s.opts.Ingest(ctx, text)
	})
}

// commit runs f in the commit order, under commitMu. A call whose ctx
// ended while it waited runs nothing and returns ctx's error.
func commit[T any](s *Server, ctx context.Context, f func(context.Context) (T, error)) (T, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	return f(ctx)
}

// Registry returns the registry backing the server's instruments (the
// one passed in Options.Observability, or the private default).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the routed HTTP handler. Every API route runs inside
// instrument, which counts it and enforces its request deadline;
// profiling routes, when enabled, bypass both.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/errata", s.instrument("errata", s.handleErrata))
	mux.Handle("GET /v1/errata/{key}", s.instrument("erratum", s.handleErratum))
	mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.Handle("GET /v1/metrics.json", s.instrument("metrics_json", s.handleMetricsJSON))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("POST /v1/admin/reload", s.instrument("admin_reload", s.handleReload))
	mux.Handle("POST /v1/admin/ingest", s.instrument("admin_ingest", s.handleIngest))
	mux.Handle("GET /errata", s.instrument("redirect", s.handleRedirect))
	mux.Handle("GET /errata/{key}", s.instrument("redirect", s.handleRedirect))
	mux.Handle("GET /stats", s.instrument("redirect", s.handleRedirect))
	h := http.Handler(mux)
	if s.opts.EnableProfiling {
		outer := http.NewServeMux()
		outer.HandleFunc("GET /debug/pprof/", profiled(pprof.Index))
		outer.HandleFunc("GET /debug/pprof/cmdline", profiled(pprof.Cmdline))
		outer.HandleFunc("GET /debug/pprof/profile", profiled(pprof.Profile))
		outer.HandleFunc("GET /debug/pprof/symbol", profiled(pprof.Symbol))
		outer.HandleFunc("GET /debug/pprof/trace", profiled(pprof.Trace))
		outer.Handle("/", h)
		h = outer
	}
	return h
}

// profiled runs a net/http/pprof handler with the connection's write
// deadline moved past the profile it was asked for: the server's
// WriteTimeout plus the requested seconds (30, pprof's longest
// default, when none are given). Go 1.24's pprof moves the deadline
// the same way, but Go 1.22's answers 400 to any profile at least as
// long as WriteTimeout. Both find the server in the request context,
// so the handler runs without it.
func profiled(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok && srv.WriteTimeout > 0 {
			sec, err := strconv.ParseFloat(r.FormValue("seconds"), 64)
			if err != nil || sec <= 0 {
				sec = 30
			}
			_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(srv.WriteTimeout + time.Duration(sec*float64(time.Second))))
			r = r.WithContext(context.WithValue(r.Context(), http.ServerContextKey, nil))
		}
		h(w, r)
	}
}

// handleRedirect answers a legacy unversioned path with a permanent
// redirect to its /v1 equivalent, query string included.
func (s *Server) handleRedirect(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusPermanentRedirect)
}

// Transport limits of the listener Serve runs. A slow or idle client
// cannot hold a connection open indefinitely, and a request whose
// header block exceeds maxHeaderBytes is refused with 431 before any
// handler runs; the longest legitimate request is a /v1/errata query
// string, far below the limit.
//
// The transport reads each request, body included, within
// RequestTimeout of its first byte, and writes each response within
// RequestTimeout + transportGrace of the end of its header block. The
// request deadline covers a handler up to its first write; the grace
// lets that answer — a 408 for a body cut off by the read deadline
// among them — reach a slow client.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	transportGrace    = 2 * time.Second
	// shutdownGrace bounds how long Serve waits for in-flight requests
	// once its context is cancelled.
	shutdownGrace = 5 * time.Second
)

// httpServer builds the *http.Server that Serve runs: Handler() behind
// the transport limits.
func (s *Server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       s.opts.RequestTimeout,
		WriteTimeout:      s.opts.RequestTimeout + transportGrace,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// Serve listens on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests within shutdownGrace.
func (s *Server) Serve(ctx context.Context, addr string) error {
	srv := s.httpServer()
	srv.Addr = addr
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		done <- srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// timeoutBody is the 503 body of a request that ran past its deadline.
const timeoutBody = `{"error":"request timed out"}`

// statusRecorder captures the response status for error counting,
// enforces the request deadline on the handler's first write, and
// forwards optional ResponseWriter capabilities to the wrapped writer.
type statusRecorder struct {
	http.ResponseWriter
	status int
	// deadline is when the request's time runs out; zero once an admin
	// handler has taken it over (see callbackContext).
	deadline time.Time
	// wroteHeader is set by the first WriteHeader, explicit or implied
	// by Write or Flush; timedOut when that came after the deadline and
	// was answered with the timeout 503.
	wroteHeader, timedOut bool
}

// WriteHeader forwards the handler's status, unless this first write
// comes after the deadline: then the response is the timeout 503 and
// everything the handler writes afterwards is dropped.
func (r *statusRecorder) WriteHeader(code int) {
	if r.timedOut {
		return
	}
	if !r.wroteHeader {
		r.wroteHeader = true
		if !r.deadline.IsZero() && time.Now().After(r.deadline) {
			r.timedOut = true
			r.status = http.StatusServiceUnavailable
			r.ResponseWriter.Header().Set("Content-Type", "application/json")
			r.ResponseWriter.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(r.ResponseWriter, timeoutBody)
			return
		}
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write sends the implied 200 first, so the deadline check sees it, and
// drops the bytes of a timed-out response.
func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wroteHeader {
		r.WriteHeader(http.StatusOK)
	}
	if r.timedOut {
		return 0, http.ErrHandlerTimeout
	}
	return r.ResponseWriter.Write(b)
}

// Flush sends the implied 200 first, as Write does, then forwards to
// the underlying writer so streaming handlers keep working behind the
// instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if !r.wroteHeader {
		r.WriteHeader(http.StatusOK)
	}
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument is the one per-route wrapper: it stamps the request
// deadline on the response recorder, runs the handler inline, and
// records the request, its latency and any status >= 400 — the timeout
// 503 included — in the route's instruments.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := s.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK, deadline: start.Add(s.opts.RequestTimeout)}
		h(rec, r)
		m.requests.Inc()
		m.latency.Observe(time.Since(start).Seconds())
		if rec.status >= 400 {
			m.errors.Inc()
		}
	}
}

// callbackContext returns the context reload and ingest hand to their
// callbacks: the request's, ending at the deadline instrument stamped
// (RequestTimeout from now when w is not instrument's). From this call
// on the handler answers for itself — 408 for a body the transport cut
// off, 503 when the deadline ended the callback, 200 once it committed,
// however late — so the recorder stops converting late writes.
func (s *Server) callbackContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc) {
	deadline := time.Now().Add(s.opts.RequestTimeout)
	if rec, ok := w.(*statusRecorder); ok {
		deadline, rec.deadline = rec.deadline, time.Time{}
	}
	return context.WithDeadline(r.Context(), deadline)
}

// writeCallbackError answers a failed reload or ingest callback: the
// timeout 503 when the request's context ended it (the callback
// installed nothing), else status with the error.
func writeCallbackError(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeJSON(w, http.StatusServiceUnavailable, []byte(timeoutBody))
		return
	}
	writeError(w, status, err.Error())
}

// marshalJSON is the marshal function behind every handler response
// except the stitched /v1/errata and /v1/errata/{key} bodies. It is a
// seam for tests only: production always points at json.Marshal.
var marshalJSON = json.Marshal

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeMarshalError answers a response that could not be encoded (a
// failed marshal, or an entry without fragments): a 500 carrying a
// static body, so the failure lands in the error metrics instead of a
// silently empty 200.
func writeMarshalError(w http.ResponseWriter) {
	writeJSON(w, http.StatusInternalServerError, []byte(`{"error":"response encoding failed"}`))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	body, err := marshalJSON(map[string]string{"error": msg})
	if err != nil {
		writeMarshalError(w)
		return
	}
	writeJSON(w, status, body)
}

// errataRequest is one compiled /v1/errata query: the filters to
// compile onto an index query plus pagination, decoupled from any
// particular index so it runs against whichever snapshot the request
// loaded.
type errataRequest struct {
	filters index.FilterSet
	unique  bool
	limit   int
	offset  int
	key     string // canonicalized filter set
}

// pageParams are the /v1/errata parameters outside index.FilterTable.
var pageParams = [...]string{"unique", "limit", "offset"}

// defaultLimit is the /v1/errata page size when limit is not given;
// maxLimit caps a larger one.
const (
	defaultLimit = 100
	maxLimit     = 1000
)

// parseFilters compiles /v1/errata query parameters: the filters of
// index.FilterTable plus unique, limit and offset. A parameter given at
// its default value adds no key part, so it shares the bare query's
// cache entry.
func parseFilters(values url.Values) (*errataRequest, error) {
	filters, err := index.ParseFilters(values, pageParams[:]...)
	if err != nil {
		return nil, err
	}
	req := &errataRequest{filters: filters, unique: true, limit: defaultLimit}
	for _, p := range pageParams {
		vals := values[p]
		if len(vals) == 0 {
			continue
		}
		if len(vals) > 1 {
			return nil, fmt.Errorf("parameter %q is single-valued but was given %d times", p, len(vals))
		}
		if p == "unique" {
			if req.unique, err = index.ParseBool(vals[0]); err != nil {
				return nil, err
			}
			continue
		}
		n, err := strconv.Atoi(vals[0])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad %s %q", p, vals[0])
		}
		if p == "limit" {
			req.limit = min(n, maxLimit)
		} else {
			req.offset = n
		}
	}
	var keyParts []string
	if !req.unique {
		keyParts = append(keyParts, "unique=false")
	}
	if req.limit != defaultLimit {
		keyParts = append(keyParts, "limit="+strconv.Itoa(req.limit))
	}
	if req.offset != 0 {
		keyParts = append(keyParts, "offset="+strconv.Itoa(req.offset))
	}
	req.key = req.filters.Key(keyParts...)
	return req, nil
}

// The canonical response representations (summary rows, per-occurrence
// details) live in internal/store: the same DTOs back the fragments
// built at swap time and the fragment region of FormatVersion 2 files —
// one definition, so the two cannot drift apart byte-wise.

// cacheKey scopes a canonical filter key to one snapshot generation.
// Entries written by older generations can never match a newer
// snapshot's lookups, so a swap invalidates the response cache without
// flushing it — while requests already executing against the old
// snapshot still hit their own generation's entries.
func cacheKey(gen uint64, filterKey string) string {
	return "g" + strconv.FormatUint(gen, 10) + "|" + filterKey
}

func (s *Server) handleErrata(w http.ResponseWriter, r *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	// A query string that does not decode (a bad %-escape, a ';') is a
	// 400, not a silently dropped pair.
	values, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, err := parseFilters(values)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := cacheKey(snap.gen, req.key)
	if body, ok := s.cache.get(key); ok {
		writeJSON(w, http.StatusOK, body)
		return
	}
	page, total := req.filters.Apply(snap.ix.Query()).Page(req.offset, req.limit, req.unique)
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	body, ok := stitchErrataPage((*bp)[:0], snap, req, page, total)
	if !ok {
		writeMarshalError(w)
		return
	}
	*bp = body
	s.cache.put(key, body)
	writeJSON(w, http.StatusOK, body)
}

// bufPool holds reusable response-stitching buffers. Buffers grow to
// the largest response they ever carry and are recycled, so the steady
// state stitches without allocating.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// stitchErrataPage appends the /v1/errata response to buf from the
// summary rows of the page's ordinals, byte-identical to json.Marshal
// of the store DTOs. The caller passes a pooled buffer; the response
// cache keeps its own copy. ok is false when any row is missing.
func stitchErrataPage(buf []byte, snap *snapshot, req *errataRequest, page []int, total int) (body []byte, ok bool) {
	for _, ord := range page {
		if snap.frags.Summary(ord) == nil {
			return nil, false
		}
	}
	buf = append(buf, `{"total":`...)
	buf = strconv.AppendInt(buf, int64(total), 10)
	buf = append(buf, `,"offset":`...)
	buf = strconv.AppendInt(buf, int64(req.offset), 10)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(len(page)), 10)
	buf = append(buf, `,"unique":`...)
	buf = strconv.AppendBool(buf, req.unique)
	buf = append(buf, `,"generation":`...)
	buf = strconv.AppendUint(buf, snap.gen, 10)
	buf = append(buf, `,"errata":[`...)
	for i, ord := range page {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, snap.frags.Summary(ord)...)
	}
	return append(buf, "]}"...), true
}

// handleErratum answers a point lookup from the snapshot's fragment
// rows: occurrences resolve through the key's ordinal postings, the key
// literal comes from the first occurrence's row, and the body is
// stitched into a pooled buffer, so the only allocation is the
// Content-Type header.
func (s *Server) handleErratum(w http.ResponseWriter, r *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	key := r.PathValue("key")
	ords := snap.ix.KeyList(key)
	if ords == nil || ords.Len() == 0 {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no erratum with key %q", key))
		return
	}
	keyJSON := snap.frags.KeyJSON(ords.At(0))
	n := ords.Len()
	for i := 0; i < n; i++ {
		if keyJSON == nil || snap.frags.Detail(ords.At(i)) == nil {
			writeMarshalError(w)
			return
		}
	}
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, `{"key":`...)
	buf = append(buf, keyJSON...)
	buf = append(buf, `,"occurrences":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, `,"generation":`...)
	buf = strconv.AppendUint(buf, snap.gen, 10)
	buf = append(buf, `,"entries":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, snap.frags.Detail(ords.At(i))...)
	}
	buf = append(buf, "]}"...)
	writeJSON(w, http.StatusOK, buf)
	*bp = buf
	bufPool.Put(bp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	st := snap.stats
	body, err := marshalJSON(struct {
		Documents    int    `json:"documents"`
		IntelDocs    int    `json:"intel_documents"`
		AMDDocs      int    `json:"amd_documents"`
		Total        int    `json:"errata"`
		IntelTotal   int    `json:"intel_errata"`
		AMDTotal     int    `json:"amd_errata"`
		Unique       int    `json:"unique"`
		IntelUnique  int    `json:"intel_unique"`
		AMDUnique    int    `json:"amd_unique"`
		Annotated    int    `json:"annotated"`
		Unclassified int    `json:"unclassified"`
		Categories   int    `json:"categories"`
		Generation   uint64 `json:"generation"`
	}{
		st.Documents, st.IntelDocs, st.AMDDocs,
		st.Total, st.IntelTotal, st.AMDTotal,
		st.Unique, st.IntelUnique, st.AMDUnique,
		st.Annotated, st.Unclassified,
		snap.db.Scheme.NumCategories(domain.Kind(-1)),
		snap.gen,
	})
	if err != nil {
		writeMarshalError(w)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.acquireSnap()
	defer snap.release()
	body, err := marshalJSON(struct {
		Status     string `json:"status"`
		Errata     int    `json:"errata"`
		Unique     int    `json:"unique"`
		Generation uint64 `json:"generation"`
	}{"ok", snap.ix.Size(), snap.ix.UniqueCount(), snap.gen})
	if err != nil {
		writeMarshalError(w)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReload swaps in a freshly produced database with zero downtime.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.opts.Reloader == nil {
		writeError(w, http.StatusNotImplemented, "reload is not configured on this server")
		return
	}
	ctx, cancel := s.callbackContext(w, r)
	defer cancel()
	gen, err := s.Reload(ctx)
	if err != nil {
		writeCallbackError(w, http.StatusInternalServerError, err)
		return
	}
	body, err := marshalJSON(struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}{"ok", gen})
	if err != nil {
		writeMarshalError(w)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// maxIngestBytes bounds one POST /v1/admin/ingest body; the largest
// real specification updates render to a few hundred kilobytes, so
// 16 MiB is generous without letting a runaway client exhaust memory.
const maxIngestBytes = 16 << 20

// handleIngest feeds one specification-update document into the live
// corpus via Server.Ingest and reports the resulting generation.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.opts.Ingest == nil {
		writeError(w, http.StatusNotImplemented, "ingest is not configured on this server")
		return
	}
	ctx, cancel := s.callbackContext(w, r)
	defer cancel()
	text, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
		return
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The body trickled in past the transport's ReadTimeout.
		writeError(w, http.StatusRequestTimeout, fmt.Sprintf("reading body: %v", err))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	sum, err := s.Ingest(ctx, string(text))
	if err != nil {
		writeCallbackError(w, http.StatusBadRequest, err)
		return
	}
	body, err := marshalJSON(struct {
		Status string `json:"status"`
		IngestSummary
	}{"ok", sum})
	if err != nil {
		writeMarshalError(w)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// EndpointSnapshot is one endpoint's counters at a point in time.
type EndpointSnapshot struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	LatencyNS int64 `json:"latency_ns"`
}

// CacheSnapshot is the cache counters at a point in time.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// MetricsSnapshot is the full /v1/metrics.json payload.
type MetricsSnapshot struct {
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	Cache     CacheSnapshot               `json:"cache"`
}

// Metrics returns a snapshot of the server's instruments, read back
// from the obs registry; the same data backs /v1/metrics.json, and the
// raw instruments are exposed in Prometheus form at /metrics.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{Endpoints: make(map[string]EndpointSnapshot, len(s.endpoints))}
	for name, m := range s.endpoints {
		snap.Endpoints[name] = EndpointSnapshot{
			Requests:  m.requests.Value(),
			Errors:    m.errors.Value(),
			LatencyNS: int64(m.latency.Snapshot().Sum * 1e9),
		}
	}
	hits, misses, evictions, entries := s.cache.stats()
	snap.Cache = CacheSnapshot{
		Hits: hits, Misses: misses, Evictions: evictions,
		Entries: entries, Capacity: s.cache.max,
	}
	return snap
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalJSON(s.Metrics())
	if err != nil {
		writeMarshalError(w)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.reg.WritePrometheus(w)
}
