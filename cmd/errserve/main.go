// Command errserve serves a RemembERR errata database over HTTP.
//
// Usage:
//
//	errserve [-db FILE | -seed N] [-addr :8372] [-cache N] [-cache-dir D] [-timeout D] [-spool D] [-mmap=false] [-pprof]
//
// The database is either loaded from a previously saved store file
// (".gz" supported, see 'rememberr build') or built from the synthetic
// corpus with the given seed. Saved files in FormatVersion 2 (see
// 'rememberr build -format=v2' and 'rememberr convert') start through
// the zero-decode fast path: the validated file bytes back the
// database directly, index postings load from the file's arrays, and
// per-erratum response fragments come from the fragment region, so
// startup skips the JSON parse, the index build and all hot-path
// marshaling. By default the v2 file is memory-mapped rather than read
// into the heap (-mmap=false opts out): record and fragment bytes stay
// disk-resident and page in on demand, so a corpus larger than RAM
// serves fine, and reloads swap mappings with zero downtime — the old
// mapping unmaps only after the last in-flight request on it finishes.
// With -cache-dir the build goes through
// the content-addressed pipeline cache, so restarts and reloads replay
// unchanged stages instead of recomputing them. The server answers
// JSON on:
//
//	GET  /v1/errata        filtered queries (?vendor=Intel&category=...)
//	GET  /v1/errata/{key}  all occurrences of one deduplicated erratum
//	GET  /v1/stats         corpus statistics
//	GET  /v1/metrics.json  JSON snapshot of the server's instruments
//	POST /v1/admin/reload  rebuild/reload the database and swap it in
//	POST /v1/admin/ingest  ingest one specification-update document
//	GET  /healthz          liveness probe
//	GET  /metrics          Prometheus text exposition
//
// Unversioned /errata, /errata/{key} and /stats answer 308 redirects
// to the /v1 paths. One obs registry is shared between the build
// pipeline and the server, so a post-build scrape of /metrics includes
// build-stage timings and classifier counters alongside the HTTP
// metrics. -pprof additionally mounts net/http/pprof on /debug/pprof/.
//
// # Streaming ingest
//
// POST /v1/admin/ingest accepts one specification-update document as
// the request body, parses, classifies and deduplicates it against the
// live corpus, merges it into the inverted index as a delta
// (internal/ingest), and swaps the new snapshot in with zero downtime;
// the response reports the new generation. -spool D additionally
// watches directory D: files dropped there (write elsewhere, then
// rename in — or rely on the trailing "END OF DOCUMENT" completeness
// check) are ingested the same way and moved to D/done or D/failed.
// -spool-interval tunes the poll period. With -cache-dir the
// per-document parse+classify work is memoized in the same
// content-addressed cache the build uses, so replaying a spool after a
// restart is cheap.
//
// SIGHUP triggers the same zero-downtime reload as POST
// /v1/admin/reload: the database is rebuilt (or re-read from -db) in
// the background and atomically swapped in; in-flight requests keep
// the snapshot they started with. A reload resets the ingest state to
// the freshly produced database. Reloads and ingests, from HTTP, SIGHUP
// or the spool, commit one at a time in one order: a reload drops the
// documents acknowledged before it began, unless its source holds them,
// and never drops one acknowledged after it. It shuts down gracefully
// on SIGINT/SIGTERM, draining in-flight requests.
//
// # Deadlines
//
// -timeout is each request's deadline, counted from when its handler
// starts. A read whose first write comes later answers 503
// {"error":"request timed out"}. POST /v1/admin/ingest and
// /v1/admin/reload answer 503 and change nothing when the deadline
// passes before they commit, and 200 once they have committed, however
// late; SIGHUP reloads have no deadline. The transport reads each
// request within -timeout and writes each response within -timeout plus
// a fixed grace, so a slow client cannot hold a connection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	rememberr "repro"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/pkg/domain"
)

func main() {
	fs := flag.NewFlagSet("errserve", flag.ExitOnError)
	addr := fs.String("addr", ":8372", "listen address")
	dbFile := fs.String("db", "", "load a saved database (v1 JSON or v2, optionally .gz) instead of building")
	seed := fs.Int64("seed", 1, "corpus generator seed (when building)")
	par := fs.Int("parallelism", 0, "pipeline worker goroutines (0 = all CPUs, 1 = sequential)")
	cacheSize := fs.Int("cache", 256, "query result cache capacity (negative disables)")
	cacheDir := fs.String("cache-dir", "", "pipeline artifact cache directory (incremental rebuilds)")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline: a handler's first write after it answers 503; it also bounds reload, ingest and the transport's reads and writes")
	spool := fs.String("spool", "", "spool directory to watch for arriving documents")
	spoolInterval := fs.Duration("spool-interval", time.Second, "spool poll period")
	useMmap := fs.Bool("mmap", true, "serve FormatVersion 2 store files from a memory mapping (larger-than-RAM corpora)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof on /debug/pprof/")
	fs.Parse(os.Args[1:])

	if err := run(*addr, *dbFile, *seed, *par, *cacheSize, *cacheDir, *spool, *spoolInterval, *timeout, *useMmap, *enablePprof); err != nil {
		fmt.Fprintln(os.Stderr, "errserve:", err)
		os.Exit(1)
	}
}

func run(addr, dbFile string, seed int64, par, cacheSize int, cacheDir, spool string, spoolInterval, timeout time.Duration, useMmap, enablePprof bool) error {
	reg := rememberr.NewRegistry()

	// build produces a fresh *domain.Database from the corpus seed; it
	// backs the initial load, POST /v1/admin/reload and SIGHUP when no
	// -db file is given, and a rebuild with -cache-dir replays every
	// unchanged pipeline stage.
	build := func(context.Context) (*domain.Database, error) {
		opts := []rememberr.Option{
			rememberr.WithSeed(seed),
			rememberr.WithParallelism(par),
			rememberr.WithObservability(reg),
		}
		if cacheDir != "" {
			opts = append(opts, rememberr.WithCache(cacheDir))
		}
		db, _, err := rememberr.Build(opts...)
		if err != nil {
			return nil, err
		}
		return db.Core(), nil
	}

	// load produces the corpus to serve, at startup and on every
	// reload: a build, or -db (re)opened through the unified store entry
	// point, which sniffs the format itself. FormatVersion 2 files take
	// the zero-decode fast path (the validated file bytes back the
	// database, index postings load from the file's arrays, response
	// fragments come from the fragment region) and are memory-mapped
	// unless -mmap=false; v1 JSON and ".gz" files decode from the heap.
	// It also materializes the corpus the ingester needs; StoreV2
	// memoizes it, so the served snapshot shares these exact pointers.
	load := func(ctx context.Context) (store.Reader, *domain.Database, error) {
		if dbFile == "" {
			db, err := build(ctx)
			return nil, db, err
		}
		r, err := store.Open(dbFile, store.WithMmap(useMmap))
		if err != nil {
			return nil, nil, err
		}
		db, err := r.Database()
		if err != nil {
			r.Close()
			return nil, nil, err
		}
		return r, db, nil
	}
	rd, db, err := load(context.Background())
	if err != nil {
		return err
	}

	// The ingester maintains the live corpus fed by /v1/admin/ingest and
	// the spool watcher. The server runs the ingest and reload callbacks
	// below one at a time, so they use and replace ing without a lock of
	// their own.
	newIngester := func(db *domain.Database) *ingest.Ingester {
		iopts := ingest.Options{Parallelism: par, Observability: reg}
		if cacheDir != "" {
			if c, err := pipeline.NewDiskCache(cacheDir); err != nil {
				fmt.Fprintln(os.Stderr, "errserve: ingest cache disabled:", err)
			} else {
				iopts.Cache = c
			}
		}
		return ingest.NewFrom(db, iopts)
	}
	ing := newIngester(db)

	var srv *serve.Server
	doIngest := func(_ context.Context, text string) (serve.IngestSummary, error) {
		res, err := ing.Apply([]string{text})
		if err != nil {
			return serve.IngestSummary{}, err
		}
		sum := serve.IngestSummary{
			Documents: res.Docs,
			Errata:    res.Errata,
			Skipped:   res.Skipped,
		}
		if res.Changed {
			sum.Generation = srv.SwapDelta(res.DB)
		} else {
			sum.Generation = srv.Generation()
		}
		return sum, nil
	}

	// A reload installs a freshly loaded corpus and resets the ingest
	// state to it: the fresh source is authoritative. A request whose
	// deadline passed before the install changes nothing and answers
	// 503. The reopened reader is closed once installed, so mmap regions
	// stay alive exactly as long as snapshots reference them, and the
	// ingester is replaced exactly when the install succeeded.
	reload := func(ctx context.Context) (uint64, error) {
		r, db, err := load(ctx)
		if err != nil {
			return 0, err
		}
		var gen uint64
		switch {
		case ctx.Err() != nil:
			err = ctx.Err()
		case r != nil:
			gen, err = srv.SwapReader(r)
		default:
			gen = srv.Swap(db)
		}
		if r != nil {
			// An installed snapshot holds its own region reference, so
			// dropping the opener's cannot unmap (or fail) here.
			r.Close()
		}
		if err != nil {
			return 0, err
		}
		ing = newIngester(db)
		return gen, nil
	}
	sopts := serve.Options{
		CacheSize:       cacheSize,
		RequestTimeout:  timeout,
		Observability:   reg,
		EnableProfiling: enablePprof,
		Reloader:        reload,
		Ingest:          doIngest,
	}
	if rd != nil {
		srv, err = serve.New(serve.WithStore(rd), sopts)
	} else {
		srv, err = serve.New(serve.WithDatabase(db), sopts)
	}
	if err != nil {
		return err
	}
	format := ""
	if rd != nil && rd.Format() == store.FormatVersion2 {
		format = " from FormatVersion 2 store"
		if rd.Mapped() {
			format = " from mmapped FormatVersion 2 store"
		}
	}
	if rd != nil {
		// The snapshot holds its own region reference now; dropping the
		// opener's ties the mapping's lifetime to the snapshots using it.
		if err := rd.Close(); err != nil {
			return err
		}
	}
	st := srv.Stats()
	fmt.Printf("serving %d errata (%d unique) on %s%s\n", st.Total, st.Unique, addr, format)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if spool != "" {
		w := &ingest.Watcher{
			Dir:      spool,
			Interval: spoolInterval,
			Apply: func(ctx context.Context, _ string, text string) error {
				// Shutdown must not move a spool file to failed/: the
				// server's context check is for request deadlines.
				_, err := srv.Ingest(context.WithoutCancel(ctx), text)
				return err
			},
			Observability: reg,
			Log: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		}
		fmt.Printf("watching spool %s (every %s)\n", spool, spoolInterval)
		go func() {
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "errserve: spool:", err)
			}
		}()
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				gen, err := srv.Reload(ctx)
				if err != nil {
					fmt.Fprintln(os.Stderr, "errserve: SIGHUP reload:", err)
					continue
				}
				fmt.Printf("reloaded database (generation %d)\n", gen)
			}
		}
	}()

	return srv.Serve(ctx, addr)
}
