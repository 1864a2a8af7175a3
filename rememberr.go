// Package rememberr is a Go reproduction of "RemembERR: Leveraging
// Microprocessor Errata for Design Testing and Validation" (Solt,
// Jattke, Razavi; MICRO 2022).
//
// It builds the RemembERR database — 2,563 errata across all Intel Core
// and AMD microprocessor documents since 2008, annotated with
// conjunctive triggers, and disjunctive contexts and observable effects
// on three abstraction levels — and reproduces every table and figure
// of the paper's evaluation.
//
// Because the original PDF documents are withdrawn or proprietary, the
// corpus substrate is synthetic: a deterministic generator emits
// specification-update documents in a faithful text format, calibrated
// to the statistics the paper reports, and the full pipeline (parsing,
// deduplication, regex-assisted classification, simulated four-eyes
// annotation, disclosure-date inference) genuinely recovers the
// database from that text. See DESIGN.md for the substitution argument.
//
// Quickstart:
//
//	db, rep, err := rememberr.Build()
//	if err != nil { ... }
//	fmt.Println(db.Stats())
//	fmt.Println(rememberr.NewExperiments(db).Figure10().Text)
//
// Build is configured with functional options (WithSeed,
// WithParallelism, WithObservability, ...):
//
//	db, rep, err := rememberr.Build(rememberr.WithSeed(7), rememberr.WithParallelism(4))
package rememberr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/annotate"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/specdoc"
	"repro/internal/taxonomy"
	"repro/internal/textsim"
	"repro/internal/timeline"
	"repro/pkg/domain"

	// The root package is a composition root: it wires the built-in
	// rule pack and corpus profile as the plugin-registry defaults.
	_ "repro/plugins/defaults"
)

// Re-exported types so that users of the library can name the values the
// facade returns without importing internal packages.
type (
	// Vendor identifies a microprocessor vendor (Intel or AMD).
	Vendor = domain.Vendor
	// Erratum is a single annotated erratum entry.
	Erratum = domain.Erratum
	// Document is a parsed specification-update document.
	Document = domain.Document
	// Annotation is the trigger/context/effect annotation of an erratum.
	Annotation = domain.Annotation
	// Item is one annotated property (abstract category + concrete text).
	Item = domain.Item
	// Kind discriminates triggers, contexts and effects.
	Kind = taxonomy.Kind
	// Scheme is the three-level classification scheme.
	Scheme = taxonomy.Scheme
	// WorkaroundCategory classifies where a workaround applies.
	WorkaroundCategory = domain.WorkaroundCategory
	// FixStatus captures whether a bug's root cause was fixed.
	FixStatus = domain.FixStatus
	// Metric names a title-similarity metric for deduplication.
	Metric = textsim.Metric
	// StructuredErratum is the machine-readable format of Table VII.
	StructuredErratum = domain.StructuredErratum
)

// Re-exported constants.
const (
	Intel = domain.Intel
	AMD   = domain.AMD

	Trigger = taxonomy.Trigger
	Context = taxonomy.Context
	Effect  = taxonomy.Effect
)

// BaseScheme returns the paper's 60-category classification scheme
// (Tables IV-VI).
func BaseScheme() *Scheme { return taxonomy.Base() }

// Registry re-exports the observability registry so callers can wire
// Build and the serving layer onto one metrics namespace without
// importing internal packages.
type Registry = obs.Registry

// NewRegistry returns an empty observability registry (see
// WithObservability).
func NewRegistry() *Registry { return obs.NewRegistry() }

// TraceSpan is one stage of the build trace (see BuildReport.Trace).
type TraceSpan = obs.Span

// Option configures Build. Options are applied in order over the
// paper-faithful defaults, so a later option overrides an earlier one.
type Option func(*buildConfig)

// WithSeed sets the corpus-generator and annotator seed; the same seed
// reproduces the same database bit for bit.
func WithSeed(seed int64) Option {
	return func(o *buildConfig) { o.Seed = seed }
}

// WithSimilarityMetric selects the title-similarity metric that ranks
// duplicate candidates.
func WithSimilarityMetric(m Metric) Option {
	return func(o *buildConfig) { o.SimilarityMetric = m }
}

// WithSimilarityThreshold sets the minimum title similarity for a
// candidate pair to be reviewed (default 0.6); 0 reviews every
// candidate pair.
func WithSimilarityThreshold(t float64) Option {
	return func(o *buildConfig) { o.SimilarityThreshold = t }
}

// WithLSH switches duplicate-candidate generation to the MinHash/LSH
// index.
func WithLSH(on bool) Option {
	return func(o *buildConfig) { o.UseLSH = on }
}

// WithInterpolation enables or disables sequential-number disclosure
// interpolation (the paper's configuration interpolates).
func WithInterpolation(on bool) Option {
	return func(o *buildConfig) { o.Interpolate = on }
}

// WithAnnotationSteps sets the number of four-eyes discussion batches
// (default 7). The annotation stage rejects values below 1.
func WithAnnotationSteps(n int) Option {
	return func(o *buildConfig) { o.AnnotationSteps = n }
}

// WithParallelism bounds the worker goroutines of the parallel
// pipeline stages (0 = GOMAXPROCS, 1 = sequential). The built database
// is byte-identical at every value.
func WithParallelism(n int) Option {
	return func(o *buildConfig) { o.Parallelism = n }
}

// WithCache enables content-addressed incremental rebuilds: every
// build stage's output artifact is persisted under dir, keyed by a
// digest of the stage's code version, its configuration, and its input
// artifacts' digests. A later Build sharing the directory replays every
// stage whose key is unchanged from disk and re-runs only the affected
// suffix of the stage graph — e.g. toggling only the interpolation knob
// replays corpus through annotate from cache and re-runs just timeline
// and validate. The built database and report are byte-identical to an
// uncached build at every cache state and worker count; cached stages
// appear in BuildReport.Trace with Cached set.
func WithCache(dir string) Option {
	return func(o *buildConfig) { o.CacheDir = dir }
}

// WithObservability directs the build's metrics into reg: per-stage
// spans (also returned as BuildReport.Trace), classify memo and
// prefilter counters, and worker-pool queue/task counters. Pass the
// same registry to serve.Options.Observability to expose build and
// serving metrics on one /metrics endpoint. A nil registry disables
// instrumentation (the default).
func WithObservability(reg *Registry) Option {
	return func(o *buildConfig) { o.Observability = reg }
}

// buildConfig is the resolved Build configuration. Only the With*
// options write it, over the defaults of defaultBuildConfig.
type buildConfig struct {
	// Seed drives the corpus generator and the annotator error
	// processes; the same seed reproduces the same database bit for bit.
	Seed int64
	// SimilarityMetric ranks Intel duplicate candidates; empty selects
	// Jaccard (see the ablation benchmarks for alternatives).
	SimilarityMetric Metric
	// SimilarityThreshold is the minimum title similarity for a
	// candidate pair to be reviewed; 0 reviews every candidate pair.
	SimilarityThreshold float64
	// UseLSH switches duplicate-candidate generation to the MinHash/LSH
	// index (near-linear instead of the exact O(n^2) scan).
	UseLSH bool
	// Interpolate enables sequential-number disclosure interpolation.
	Interpolate bool
	// AnnotationSteps is the number of four-eyes discussion batches;
	// the annotation stage rejects values below 1.
	AnnotationSteps int
	// Parallelism bounds the number of worker goroutines used by the
	// parallel pipeline stages: document rendering and parsing,
	// duplicate-candidate scoring, and regex classification. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces the fully sequential path. The
	// built database and report are byte-identical at every value —
	// see the concurrency model in DESIGN.md.
	Parallelism int
	// Observability, when non-nil, receives the build's metrics and
	// stage spans. Instrumentation never changes the built database.
	Observability *Registry
	// CacheDir, when non-empty, persists stage artifacts under this
	// directory for content-addressed incremental rebuilds. Empty
	// disables caching.
	CacheDir string
}

// defaultBuildConfig returns the paper-faithful configuration: seed 1,
// Jaccard similarity at threshold 0.6, interpolation on, 7 annotation
// steps.
func defaultBuildConfig() buildConfig {
	return buildConfig{
		Seed:                1,
		SimilarityMetric:    textsim.MetricJaccard,
		SimilarityThreshold: 0.6,
		Interpolate:         true,
		AnnotationSteps:     7,
	}
}

// BuildReport documents one pipeline run.
type BuildReport struct {
	// Diagnostics lists the document inconsistencies ("errata in
	// errata") the parser surfaced.
	Diagnostics []specdoc.Diagnostic
	// Dedup summarizes duplicate detection (unique counts, reviewed
	// candidate pairs, confirmed pairs).
	Dedup *dedup.Result
	// Annotation summarizes the four-eyes protocol (steps, agreement,
	// decision volumes).
	Annotation *annotate.Result
	// Timeline summarizes disclosure-date inference.
	Timeline timeline.Stats
	// GroundTruth is the generator's hidden truth; it backs the manual
	// review and annotation oracles and lets callers validate recovery.
	GroundTruth *corpus.GroundTruth
	// Trace is the per-stage span tree of this build: wall time and
	// item counts for corpus generation, document rendering, parsing,
	// deduplication, annotation (with classify/protocol/propagate
	// children), disclosure inference and validation. Always present;
	// when the build ran with WithObservability the same stage timings
	// are also published as registry gauges.
	Trace *TraceSpan
}

// Database is the built RemembERR database.
type Database struct {
	core   *domain.Database
	report *BuildReport
	idx    atomic.Pointer[index.Index]

	// flightMu/flight coalesce concurrent BuildIndex calls into one
	// index construction (singleflight). flightJoined, when non-nil,
	// is invoked each time a caller joins an existing flight — a test
	// seam that lets the singleflight tests sequence joiners
	// deterministically.
	flightMu     sync.Mutex
	flight       *indexFlight
	flightJoined func()
}

// indexFlight is one in-progress index construction; joiners block on
// done and share the leader's result.
type indexFlight struct {
	done chan struct{}
	ix   *index.Index
}

// Build runs the full pipeline: corpus generation, document rendering,
// parsing, deduplication, classification plus simulated four-eyes
// annotation, and disclosure-date inference. With no options it builds
// the paper-faithful default configuration; options are applied in
// order over it.
func Build(options ...Option) (*Database, *BuildReport, error) {
	opts := defaultBuildConfig()
	for _, o := range options {
		o(&opts)
	}

	reg := opts.Observability
	if reg != nil {
		parallel.Instrument(reg)
	}

	runner := &pipeline.Runner{Obs: reg}
	if opts.CacheDir != "" {
		cache, err := pipeline.NewDiskCache(opts.CacheDir)
		if err != nil {
			return nil, nil, fmt.Errorf("rememberr: open pipeline cache: %w", err)
		}
		runner.Cache = cache
	}
	res, err := runner.Run("build", buildStages(opts))
	if err != nil {
		return nil, nil, err
	}
	return assembleBuild(res)
}

func uniformFractions(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}

// Core exposes the underlying database for advanced use.
func (db *Database) Core() *domain.Database { return db.core }

// BuildIndex builds the inverted-index query engine over the current
// database contents and returns it; Query terminal operations run on
// it, and the first of them builds it when no index exists yet. The
// index is a snapshot: call BuildIndex again after mutating the
// underlying core database. Safe for concurrent use with Query execution, and
// singleflight under contention: concurrent callers coalesce onto one
// construction and all receive the same *index.Index; a call issued
// after that construction finished builds a fresh snapshot.
func (db *Database) BuildIndex() *index.Index {
	return db.buildIndexWith(index.Build)
}

// buildIndexWith is BuildIndex with the index constructor injected, the
// seam the singleflight tests use to hold a flight open deterministically.
func (db *Database) buildIndexWith(build func(*domain.Database) *index.Index) *index.Index {
	db.flightMu.Lock()
	if f := db.flight; f != nil {
		joined := db.flightJoined
		db.flightMu.Unlock()
		if joined != nil {
			joined()
		}
		<-f.done
		return f.ix
	}
	f := &indexFlight{done: make(chan struct{})}
	db.flight = f
	db.flightMu.Unlock()

	f.ix = build(db.core)
	db.idx.Store(f.ix)

	db.flightMu.Lock()
	db.flight = nil
	db.flightMu.Unlock()
	close(f.done)
	return f.ix
}

// Index returns the inverted index built by BuildIndex, or nil before
// the first build.
func (db *Database) Index() *index.Index { return db.idx.Load() }

// Report returns the build report, or nil for loaded databases.
func (db *Database) Report() *BuildReport { return db.report }

// Scheme returns the classification scheme in force.
func (db *Database) Scheme() domain.Scheme { return db.core.Scheme }

// Stats summarizes corpus-level counts.
type Stats = domain.Stats

// Stats recomputes corpus statistics.
func (db *Database) Stats() Stats { return db.core.ComputeStats() }

// Documents returns all documents in vendor/order sequence.
func (db *Database) Documents() []*Document { return db.core.Documents() }

// Errata returns every entry, duplicates counted individually.
func (db *Database) Errata() []*Erratum { return db.core.Errata() }

// Unique returns one representative entry per deduplicated erratum.
func (db *Database) Unique() []*Erratum { return db.core.Unique() }

// UniqueVendor returns the unique errata of one vendor.
func (db *Database) UniqueVendor(v Vendor) []*Erratum { return db.core.UniqueVendor(v) }

// Document returns one document by key, or nil.
func (db *Database) Document(key string) *Document { return db.core.Docs[key] }

// FromCore wraps an existing core database (e.g. one loaded from JSON)
// in the facade. The resulting Database has no build provenance:
// Report returns nil (callers must nil-check before reading build
// artifacts) and Index returns nil until the index is first built; every
// other accessor — Stats, Errata, Unique, Query, the serving layer —
// works identically to a freshly built database.
func FromCore(c *domain.Database) *Database { return &Database{core: c} }
