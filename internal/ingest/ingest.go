// Package ingest turns the one-shot build pipeline into a continuous
// document feed: new or revised specification-update documents are
// parsed, deduplicated against the live database and auto-classified
// into copy-on-write snapshots, whose index serve.SwapDelta merges as a
// delta — never by rebuilding from scratch.
//
// # Convergence contract
//
// Ingestion is anchored on one invariant, enforced by the property and
// fuzz battery in this package: after any sequence of ingests — any
// arrival order, any batch split, any worker count — the resulting
// database is byte-identical (store.Encode) to a cold Build over the
// union document set, and an index merged along the snapshots with
// index.MergeDelta is structurally identical to a full index.Build over
// it. Every global quantity is therefore computed as a pure function of
// the union state rather than of the arrival history:
//
//   - Per-document work (parse, classification, disclosure inference) is
//     a function of the document text alone, and is memoized in the
//     content-addressed artifact cache keyed by the text's sha256.
//   - Per-entry annotation is annotate.Apply with no ground truth, the
//     build's own rule: every undecided pair resolves to exclude.
//   - Chronological Order indices are domain.Orders of the union, the
//     rule domain.AssignOrders applies to a cold build.
//   - Dedup keys: AMD entries key by shared ID ("A-<ID>"); Intel entries
//     join the cluster of any initial-database entry with the same
//     normalized title (frozen keys — the live database's oracle-reviewed
//     clusters are never re-split), and remaining entries cluster by
//     exact normalized title, labelled by content: "I-" plus the
//     shortest prefix, at least 8 hex digits, of the title's sha256 that
//     no other fresh title of the union shares and that is not a frozen
//     key. A key therefore keeps naming the same title across
//     generations; it only widens or shrinks when a title with the same
//     8-digit prefix arrives or leaves. Apply keeps a refcounted table
//     of the union's fresh titles and labels only the titles of the
//     batch and of the documents it replaces.
//
// # Snapshot discipline
//
// Every Apply publishes a fresh *domain.Database that shares all unchanged
// documents and entries with the previous snapshot by pointer and clones
// anything it must touch (a document whose Order shifted, an entry whose
// label widened or shrank, an initial entry whose key disagrees with the
// union rule). Old snapshots — including ones currently
// being served — are never mutated, which is exactly the sharing
// contract index.MergeDelta verifies against.
package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/specdoc"
	"repro/internal/store"
	"repro/internal/textsim"
	"repro/internal/timeline"
	"repro/pkg/domain"
)

// docArtifactVersion versions the cached per-document artifact (parsed
// document + auto-classification). Bump it when the parser, the
// classifier rules, or the artifact encoding change semantics.
const docArtifactVersion = "ingest-doc@v3"

// Options configures an Ingester.
type Options struct {
	// Cache, when non-nil, memoizes the per-document parse+classify
	// artifact content-addressed by the document text's sha256 —
	// typically the same pipeline.DiskCache directory the build uses, so
	// re-ingesting a document (or replaying a spool after a restart)
	// skips the expensive per-document work.
	Cache pipeline.Cache
	// Parallelism bounds the per-batch parse+classify worker pool
	// (0 = GOMAXPROCS, 1 = sequential). The result is byte-identical at
	// every worker count.
	Parallelism int
	// Observability receives the ingest instruments; nil selects a
	// private registry.
	Observability *obs.Registry
}

// Result summarizes one Apply batch.
type Result struct {
	// DB is the new immutable snapshot. When Changed is false the
	// batch was a no-op (every document unchanged) and it is the
	// previous snapshot.
	DB      *domain.Database
	Changed bool

	// Docs counts documents applied from this batch (Replaced of them
	// replacing an existing document key), Errata their entries.
	// Skipped counts documents whose text digest matched the live
	// database and were dropped as idempotent re-ingests.
	Docs     int
	Replaced int
	Skipped  int
	Errata   int
	// Relabeled counts pre-existing entries cloned because their cluster
	// key changed: a fresh label widened or shrank on an 8-digit prefix
	// collision, or an initial entry disagreed with the union rule (at
	// the first Apply only). Reordered counts pre-existing documents
	// cloned because an insertion shifted their Order.
	Relabeled int
	Reordered int

	// MergeDuration is always 0: the delta index merge runs in
	// serve.SwapDelta (rememberr_ingest_merge_duration_seconds).
	MergeDuration time.Duration
	// Diags carries the parse diagnostics of the batch's documents.
	Diags []specdoc.Diagnostic
}

// Ingester maintains a live database snapshot fed by Apply batches.
// All methods are safe for concurrent use; Apply batches are serialized
// internally.
type Ingester struct {
	mu     sync.Mutex
	opts   Options
	scheme *domain.Scheme
	engine *classify.Engine

	// frozenKey maps normalized Intel titles of the initial database to
	// their cluster keys: the live clusters newly arriving entries join.
	// frozenKeys is the set of those keys, which fresh labels avoid.
	frozenKey  map[string]string
	frozenKeys map[string]bool
	// fresh is the fresh-title table: every normalized Intel title of
	// the union that no frozen cluster claims. byPrefix groups its rows
	// by the first labelDigits hex digits of their sha256, the only
	// rows a row's label depends on.
	fresh    map[string]*freshTitle
	byPrefix map[string][]*freshTitle
	// rekey holds the initial entries whose key disagrees with the union
	// rule, with their normalized title ("" outside Intel). The first
	// Apply that publishes re-keys them.
	rekey map[*domain.Erratum]string

	digests map[string]string // doc key -> source text sha256 ("" for initial docs)
	db      *domain.Database  // current union, published objects
	ix      *index.Index      // index.Build(db), built lazily by Snapshot

	// titles holds, per live Intel document, its entries' normalized
	// titles in entry order: what Apply uncounts when the document is
	// replaced, without normalizing them again.
	titles map[string][]string

	docsTotal   *obs.Counter
	errataTotal *obs.Counter
	batches     *obs.Counter
	skipped     *obs.Counter
	errorsTotal *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	applyLat    *obs.Histogram
}

// New returns an Ingester over an empty database.
func New(opts Options) *Ingester { return NewFrom(nil, opts) }

// NewFrom returns an Ingester seeded with an existing database (for
// example the one errserve built or loaded at startup). The initial
// documents are taken as-is — annotations, disclosure dates and cluster
// keys included — and their Intel clusters are frozen: arriving entries
// with a matching normalized title join them instead of forming new
// clusters. The caller must not mutate initial afterwards.
func NewFrom(initial *domain.Database, opts Options) *Ingester {
	reg := opts.Observability
	if reg == nil {
		reg = obs.NewRegistry()
	}
	in := &Ingester{
		opts:       opts,
		scheme:     domain.BaseScheme(),
		frozenKey:  make(map[string]string),
		frozenKeys: make(map[string]bool),
		fresh:      make(map[string]*freshTitle),
		byPrefix:   make(map[string][]*freshTitle),
		rekey:      make(map[*domain.Erratum]string),
		digests:    make(map[string]string),
		titles:     make(map[string][]string),
	}
	docs := make(map[string]*domain.Document)
	in.engine = classify.NewEngineConfig(classify.Config{Prefilter: true, Memo: true, Obs: reg})
	if initial != nil {
		if initial.Scheme != nil {
			in.scheme = initial.Scheme
		}
		for k, d := range initial.Docs {
			docs[k] = d
			in.digests[k] = ""
		}
		// First occurrence in database order wins, so a (contract-
		// violating) initial database with conflicting keys for one
		// normalized title still freezes deterministically. Titles
		// repeat across documents, so each distinct one is normalized
		// once.
		var intel []*domain.Erratum
		var norms []string
		normOf := make(map[string]string)
		for _, d := range initial.VendorDocuments(domain.Intel) {
			titles := make([]string, len(d.Errata))
			for j, e := range d.Errata {
				n, ok := normOf[e.Title]
				if !ok {
					n = textsim.Normalize(e.Title)
					normOf[e.Title] = n
				}
				titles[j] = n
			}
			in.titles[d.Key] = titles
			intel = append(intel, d.Errata...)
			norms = append(norms, titles...)
		}
		for i, e := range intel {
			n := norms[i]
			if _, ok := in.frozenKey[n]; !ok && e.Key != "" {
				in.frozenKey[n] = e.Key
				in.frozenKeys[e.Key] = true
			}
		}
		delta := make(map[string]int)
		for i, e := range intel {
			k, frozen := in.frozenKey[norms[i]]
			if !frozen {
				delta[norms[i]]++
			}
			if !frozen || e.Key != k {
				in.rekey[e] = norms[i]
			}
		}
		for _, d := range initial.Docs {
			if d.Vendor == domain.Intel {
				continue
			}
			for _, e := range d.Errata {
				if e.Key != in.key(d.Vendor, e, "") {
					in.rekey[e] = ""
				}
			}
		}
		in.retitle(delta)
	}
	in.db = &domain.Database{Docs: docs, Scheme: in.scheme}

	in.docsTotal = reg.Counter("rememberr_ingest_documents_total",
		"Documents ingested (new or revised; idempotent re-ingests excluded).")
	in.errataTotal = reg.Counter("rememberr_ingest_errata_total",
		"Errata entries carried by ingested documents.")
	in.batches = reg.Counter("rememberr_ingest_batches_total",
		"Ingest batches applied (including no-op batches).")
	in.skipped = reg.Counter("rememberr_ingest_skipped_total",
		"Documents skipped as unchanged re-ingests.")
	in.errorsTotal = reg.Counter("rememberr_ingest_errors_total",
		"Ingest batches rejected (parse failures leave the snapshot untouched).")
	in.cacheHits = reg.Counter("rememberr_ingest_cache_hits_total",
		"Per-document artifact cache hits.")
	in.cacheMisses = reg.Counter("rememberr_ingest_cache_misses_total",
		"Per-document artifact cache misses.")
	in.applyLat = reg.Histogram("rememberr_ingest_apply_duration_seconds",
		"End-to-end Apply latency per ingest batch.", obs.LatencyBuckets)
	return in
}

// Snapshot returns the current database and an index over it, both
// immutable. The index is built on first use and kept until Apply.
func (in *Ingester) Snapshot() (*domain.Database, *index.Index) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ix == nil {
		in.ix = index.Build(in.db)
	}
	return in.db, in.ix
}

// Build is the cold baseline of the convergence contract: it runs the
// whole ingest pipeline over the union of initial and texts in one
// batch and builds the index from scratch with index.Build. Every
// incremental ingest sequence over the same union must produce a
// byte-identical database and a structurally identical index.
func Build(initial *domain.Database, texts []string, opts Options) (*domain.Database, *index.Index, error) {
	in := NewFrom(initial, opts)
	res, err := in.Apply(texts)
	if err != nil {
		return nil, nil, err
	}
	return res.DB, index.Build(res.DB), nil
}

// Apply ingests a batch of specification-update document texts and
// publishes a new snapshot. The batch is atomic: any parse failure
// rejects the whole batch and leaves the snapshot untouched. Within a
// batch the last text for a document key wins; a text whose sha256
// matches the live document is skipped as an idempotent re-ingest.
func (in *Ingester) Apply(texts []string) (*Result, error) {
	start := time.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	in.batches.Inc()

	parsed, err := parallel.Map(len(texts), in.opts.Parallelism, func(i int) (*parsedDoc, error) {
		return in.parseOne(texts[i])
	})
	if err != nil {
		in.errorsTotal.Inc()
		return nil, err
	}

	res := &Result{}
	batch := make(map[string]*parsedDoc, len(parsed))
	for _, p := range parsed { // last occurrence of a key wins
		res.Diags = append(res.Diags, p.diags...)
		batch[p.doc.Key] = p
	}
	for key, p := range batch {
		if prev, ok := in.digests[key]; ok && prev != "" && prev == p.digest {
			delete(batch, key)
			res.Skipped++
		}
	}
	in.skipped.Add(int64(res.Skipped))
	if len(batch) == 0 {
		res.DB = in.db
		in.applyLat.Observe(time.Since(start).Seconds())
		return res, nil
	}

	// Only the batch and the documents it replaces change the
	// fresh-title table, so only the batch's titles are normalized; a
	// replaced document's were kept when it went live.
	union := maps.Clone(in.db.Docs)
	delta := make(map[string]int)
	norms := make(map[string][]string, len(batch)) // batch doc key -> normalized titles (Intel only)
	for k, p := range batch {
		if _, ok := union[k]; ok {
			res.Replaced++
			for _, n := range in.titles[k] {
				in.count(delta, n, -1)
			}
		}
		ns := make([]string, len(p.doc.Errata))
		if p.doc.Vendor == domain.Intel {
			for i, e := range p.doc.Errata {
				ns[i] = textsim.Normalize(e.Title)
				in.count(delta, ns[i], 1)
			}
		}
		norms[k] = ns
		union[k] = p.doc
		res.Docs++
		res.Errata += len(p.doc.Errata)
	}
	relabel := in.retitle(delta)
	orders := domain.Orders(union)

	// rekeyed is the union rule's key for a pre-existing entry: the
	// entry's own key unless it is an initial entry awaiting its first
	// re-key or its fresh title's label changed in this batch.
	rekeyed := func(v domain.Vendor, e *domain.Erratum) string {
		if n, ok := in.rekey[e]; ok {
			return in.key(v, e, n)
		}
		if k, ok := relabel[e.Key]; ok {
			return k
		}
		return e.Key
	}

	// Materialize the new snapshot copy-on-write: batch documents are
	// still private and are finalized in place; pre-existing documents
	// are shared untouched unless the union shifted their Order or
	// changed one of their entries' keys, in which case the document
	// (and only the affected entries) are cloned.
	final := make(map[string]*domain.Document, len(union))
	for k, d := range union {
		if _, isNew := batch[k]; isNew {
			d.Order = orders[k]
			for i, e := range d.Errata {
				e.Key = in.key(d.Vendor, e, norms[k][i])
			}
			final[k] = d
			continue
		}
		needs := d.Order != orders[k]
		if !needs {
			for _, e := range d.Errata {
				if rekeyed(d.Vendor, e) != e.Key {
					needs = true
					break
				}
			}
		}
		if !needs {
			final[k] = d
			continue
		}
		if d.Order != orders[k] {
			res.Reordered++
		}
		dc := *d
		dc.Order = orders[k]
		dc.Errata = make([]*domain.Erratum, len(d.Errata))
		for i, e := range d.Errata {
			if key := rekeyed(d.Vendor, e); key != e.Key {
				ne := e.Clone()
				ne.Key = key
				dc.Errata[i] = ne
				res.Relabeled++
			} else {
				dc.Errata[i] = e
			}
		}
		final[k] = &dc
	}

	// Disclosure inference is strictly per-document; run it on the
	// batch's fresh documents only (clones keep their inferred dates).
	tdb := &domain.Database{Docs: make(map[string]*domain.Document, len(batch)), Scheme: in.scheme}
	for k := range batch {
		tdb.Docs[k] = final[k]
	}
	timeline.InferDisclosures(tdb, timeline.DefaultOptions())

	db := &domain.Database{Docs: final, Scheme: in.scheme}
	in.db, in.ix, in.rekey = db, nil, nil
	for k, p := range batch {
		in.digests[k] = p.digest
		if p.doc.Vendor == domain.Intel {
			in.titles[k] = norms[k]
		} else {
			delete(in.titles, k)
		}
	}
	in.docsTotal.Add(int64(res.Docs))
	in.errataTotal.Add(int64(res.Errata))
	res.DB, res.Changed = db, true
	in.applyLat.Observe(time.Since(start).Seconds())
	return res, nil
}

type parsedDoc struct {
	doc    *domain.Document
	digest string
	diags  []specdoc.Diagnostic
}

// parseOne produces the per-document artifact for one text: the parsed
// document with every entry auto-classified, before any union-dependent
// work (Order, dedup keys and disclosure dates are assigned at Apply
// time). The artifact is memoized content-addressed by the text's
// sha256; a corrupt cached artifact degrades to a miss.
func (in *Ingester) parseOne(text string) (*parsedDoc, error) {
	digest := sha256hex([]byte(text))
	cacheKey := docArtifactVersion + "-" + digest
	if in.opts.Cache != nil {
		if raw, _, ok := in.opts.Cache.Get(cacheKey); ok {
			if p, err := decodeArtifact(raw); err == nil {
				in.cacheHits.Inc()
				p.digest = digest
				return p, nil
			}
		}
		in.cacheMisses.Inc()
	}
	doc, diags, err := specdoc.Parse(text)
	if err != nil {
		return nil, err
	}
	for _, e := range doc.Errata {
		annotate.Apply(e, in.engine.Classify(e), nil, in.scheme)
	}
	p := &parsedDoc{doc: doc, digest: digest, diags: diags}
	if in.opts.Cache != nil {
		if raw, err := encodeArtifact(p); err == nil {
			in.opts.Cache.Put(cacheKey, raw, pipeline.Meta{
				Digest: sha256hex(raw), Items: len(doc.Errata), Bytes: len(raw),
			})
		}
	}
	return p, nil
}

// labelDigits is the shortest fresh label, in hex digits of the
// normalized title's sha256.
const labelDigits = 8

// freshTitle is one row of the fresh-title table: a normalized Intel
// title of the union that no frozen cluster claims.
type freshTitle struct {
	sum   string // hex sha256 of the normalized title
	refs  int    // union entries carrying the title
	label string // its cluster key
}

// count adds d to the delta of normalized Intel title n, unless n
// belongs to a frozen cluster (frozen titles are not in the table).
func (in *Ingester) count(delta map[string]int, n string, d int) {
	if _, ok := in.frozenKey[n]; !ok {
		delta[n] += d
	}
}

// retitle applies per-title entry-count deltas to the fresh-title
// table: a title whose count reaches zero leaves it, a new title joins
// it, and every row of a prefix group that gained or lost a member is
// labelled again. It returns the label changes of rows that were
// already labelled, old label to new.
func (in *Ingester) retitle(delta map[string]int) map[string]string {
	dirty := make(map[string]bool)
	for n, d := range delta {
		if d == 0 {
			continue
		}
		row := in.fresh[n]
		if row == nil {
			row = &freshTitle{sum: sha256hex([]byte(n))}
			in.fresh[n] = row
			p := row.sum[:labelDigits]
			in.byPrefix[p] = append(in.byPrefix[p], row)
			dirty[p] = true
		}
		if row.refs += d; row.refs == 0 {
			delete(in.fresh, n)
			p := row.sum[:labelDigits]
			in.byPrefix[p] = slices.DeleteFunc(in.byPrefix[p], func(r *freshTitle) bool { return r == row })
			if len(in.byPrefix[p]) == 0 {
				delete(in.byPrefix, p)
			}
			dirty[p] = true
		}
	}
	var relabel map[string]string
	for p := range dirty {
		group := in.byPrefix[p]
		for _, row := range group {
			l := in.label(row, group)
			if row.label != "" && row.label != l {
				if relabel == nil {
					relabel = make(map[string]string)
				}
				relabel[row.label] = l
			}
			row.label = l
		}
	}
	return relabel
}

// label returns "I-" plus the shortest prefix of row.sum, at least
// labelDigits long, that no other row of its prefix group shares and
// that is not a frozen cluster's key.
func (in *Ingester) label(row *freshTitle, group []*freshTitle) string {
	k := labelDigits
	for _, o := range group {
		if o == row {
			continue
		}
		i := 0
		for i < len(row.sum) && row.sum[i] == o.sum[i] {
			i++
		}
		k = max(k, min(i+1, len(row.sum)))
	}
	for k < len(row.sum) && in.frozenKeys["I-"+row.sum[:k]] {
		k++
	}
	return "I-" + row.sum[:k]
}

// key is the union rule for the cluster key of entry e of a vendor-v
// document, given its normalized title n (used for Intel only): AMD
// entries key by shared ID, Intel entries by their frozen cluster's key
// or else by their fresh title's label, and other entries are keyless.
func (in *Ingester) key(v domain.Vendor, e *domain.Erratum, n string) string {
	switch v {
	case domain.AMD:
		if e.ID != "" {
			return "A-" + e.ID
		}
	case domain.Intel:
		if k, ok := in.frozenKey[n]; ok {
			return k
		}
		return in.fresh[n].label
	}
	return ""
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// encodeArtifact caches a parsed document as a single-document
// database with its parse diagnostics as metadata.
func encodeArtifact(p *parsedDoc) ([]byte, error) {
	one := domain.NewDatabase(domain.BaseScheme())
	if err := one.Add(p.doc); err != nil {
		return nil, err
	}
	return store.NewArtifact(one, p.diags).Marshal()
}

func decodeArtifact(raw []byte) (*parsedDoc, error) {
	a, err := store.UnmarshalArtifact[[]specdoc.Diagnostic](raw)
	if err != nil {
		return nil, err
	}
	one, err := a.Database()
	if err != nil {
		return nil, err
	}
	if len(one.Docs) != 1 {
		return nil, fmt.Errorf("ingest: artifact holds %d documents", len(one.Docs))
	}
	for _, d := range one.Docs {
		return &parsedDoc{doc: d, diags: a.Meta}, nil
	}
	return nil, fmt.Errorf("ingest: empty artifact")
}
