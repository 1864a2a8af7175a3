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
//   - Chronological Order indices are recomputed from the union exactly
//     as domain.AssignOrders would assign them.
//   - Dedup keys: AMD entries key by shared ID ("A-<ID>"); Intel entries
//     join the cluster of any initial-database entry with the same
//     normalized title (frozen keys — the live database's oracle-reviewed
//     clusters are never re-split), and remaining entries cluster by
//     exact normalized title with labels numbered from the union's
//     (minOrder, minSeq) cluster ordering, continuing the initial
//     database's "I-%04d" sequence. Relabels caused by later arrivals
//     are applied to clones, never in place.
//
// # Snapshot discipline
//
// Every Apply publishes a fresh *domain.Database that shares all unchanged
// documents and entries with the previous snapshot by pointer and clones
// anything it must touch (a document whose Order shifted, an entry whose
// cluster key was renumbered). Old snapshots — including ones currently
// being served — are never mutated, which is exactly the sharing
// contract index.MergeDelta verifies against.
package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/specdoc"
	"repro/internal/store"
	"repro/internal/taxonomy"
	"repro/internal/textsim"
	"repro/internal/timeline"
	"repro/pkg/domain"
)

// docArtifactVersion versions the cached per-document artifact (parsed
// document + auto-classification). Bump it when the parser, the
// classifier rules, or the artifact encoding change semantics.
const docArtifactVersion = "ingest-doc@v1"

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
	// Relabeled counts pre-existing entries cloned because the union
	// dedup renumbered their cluster key; Reordered counts pre-existing
	// documents cloned because an insertion shifted their Order.
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
	scheme domain.Scheme
	engine *classify.Engine

	// frozenKey maps normalized Intel titles of the initial database to
	// their cluster keys: the live clusters newly arriving entries join.
	// nextLabel is the first free "I-%04d" label after the initial ones.
	frozenKey map[string]string
	nextLabel int
	norm      map[string]string // union's Intel titles -> textsim.Normalize

	digests map[string]string // doc key -> source text sha256 ("" for initial docs)
	db      *domain.Database  // current union, published objects
	ix      *index.Index      // index.Build(db), built lazily by Snapshot

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
		opts:      opts,
		scheme:    taxonomy.Base(),
		frozenKey: make(map[string]string),
		norm:      make(map[string]string),
		digests:   make(map[string]string),
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
		// normalized title still freezes deterministically.
		for _, e := range initial.VendorErrata(domain.Intel) {
			n := textsim.Normalize(e.Title)
			in.norm[e.Title] = n
			if e.Key == "" {
				continue
			}
			if _, ok := in.frozenKey[n]; !ok {
				in.frozenKey[n] = e.Key
			}
			if l, ok := parseIntelLabel(e.Key); ok && l > in.nextLabel-1 {
				in.nextLabel = l
			}
		}
	}
	in.nextLabel++
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

	parsed, err := in.parseBatch(texts)
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

	union := maps.Clone(in.db.Docs)
	for k, p := range batch {
		if _, ok := union[k]; ok {
			res.Replaced++
		}
		union[k] = p.doc
		res.Docs++
		res.Errata += len(p.doc.Errata)
	}

	orders := computeOrders(union)
	keys := in.computeKeys(union, orders)

	// Materialize the new snapshot copy-on-write: batch documents are
	// still private and are finalized in place; pre-existing documents
	// are shared untouched unless the union shifted their Order or
	// renumbered one of their entries' keys, in which case the document
	// (and only the affected entries) are cloned.
	final := make(map[string]*domain.Document, len(union))
	for k, d := range union {
		if _, isNew := batch[k]; isNew {
			d.Order = orders[k]
			for _, e := range d.Errata {
				e.Key = keys[e]
			}
			final[k] = d
			continue
		}
		needs := d.Order != orders[k]
		if !needs {
			for _, e := range d.Errata {
				if keys[e] != e.Key {
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
			if keys[e] != e.Key {
				ne := e.Clone()
				ne.Key = keys[e]
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
	timeline.InferDisclosures(tdb, timeline.Options{Interpolate: true})

	db := &domain.Database{Docs: final, Scheme: in.scheme}
	in.db, in.ix = db, nil
	for k, p := range batch {
		in.digests[k] = p.digest
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

// parseBatch parses and auto-classifies every text with a bounded
// worker pool, going through the content-addressed artifact cache.
func (in *Ingester) parseBatch(texts []string) ([]*parsedDoc, error) {
	out, err := parallel.Map(len(texts), in.opts.Parallelism, func(i int) (*parsedDoc, error) {
		return in.parseOne(texts[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
		applyAutoAnnotation(in.scheme, in.engine.Classify(e), e)
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

// applyAutoAnnotation writes the classifier's auto-included categories,
// flags and per-entry workaround/fix classifications onto the erratum —
// the oracle-free half of annotate.Run's applyAnnotation (a live feed
// has no ground truth to resolve undecided pairs against).
func applyAutoAnnotation(scheme domain.Scheme, rep *classify.Report, e *domain.Erratum) {
	var ann domain.Annotation
	for _, cat := range rep.IncludedCategories(scheme) {
		c, ok := scheme.Category(cat)
		if !ok {
			continue
		}
		item := domain.Item{Category: cat, Concrete: rep.Concrete[cat]}
		switch c.Kind {
		case taxonomy.Trigger:
			ann.Triggers = append(ann.Triggers, item)
		case taxonomy.Context:
			ann.Contexts = append(ann.Contexts, item)
		case taxonomy.Effect:
			ann.Effects = append(ann.Effects, item)
		}
	}
	ann.MSRs = append([]string(nil), rep.MSRs...)
	ann.ComplexConditions = rep.Complex
	ann.TrivialTrigger = rep.Trivial
	ann.SimulationOnly = rep.SimulationOnly
	e.Ann = ann
	e.WorkaroundCat = rep.WorkaroundCat
	e.Fix = rep.Fix
}

// computeOrders assigns chronological Order indices for the union
// exactly as domain.AssignOrders would — per vendor, sorted by (GenIndex,
// Released, Key) — but functionally, without mutating shared documents.
func computeOrders(union map[string]*domain.Document) map[string]int {
	byVendor := make(map[domain.Vendor][]*domain.Document)
	for _, d := range union {
		byVendor[d.Vendor] = append(byVendor[d.Vendor], d)
	}
	orders := make(map[string]int, len(union))
	for _, docs := range byVendor {
		sort.Slice(docs, func(i, j int) bool {
			if docs[i].GenIndex != docs[j].GenIndex {
				return docs[i].GenIndex < docs[j].GenIndex
			}
			if !docs[i].Released.Equal(docs[j].Released) {
				return docs[i].Released.Before(docs[j].Released)
			}
			return docs[i].Key < docs[j].Key
		})
		for i, d := range docs {
			orders[d.Key] = i
		}
	}
	return orders
}

// computeKeys assigns the dedup cluster key of every entry in the union
// as a pure function of the union document set and the frozen initial
// clusters, so any ingest order converges to the same keys. AMD entries
// key by shared ID; Intel entries adopt a frozen cluster's key when
// their normalized title matches one, and otherwise cluster by exact
// normalized title with "I-%04d" labels numbered in the union's
// (minOrder, minSeq) cluster order, continuing after the frozen labels
// (mirroring dedup.assignIntelKeys; with no frozen clusters the result
// is exactly dedup.Deduplicate with a nil oracle). It rebuilds in.norm.
func (in *Ingester) computeKeys(union map[string]*domain.Document, orders map[string]int) map[*domain.Erratum]string {
	keys := make(map[*domain.Erratum]string)
	norm := make(map[string]string, len(in.norm))
	type cluster struct {
		minOrder, minSeq int
		title            string // normalized
		members          []*domain.Erratum
	}
	fresh := make(map[string]*cluster)
	for _, d := range union {
		for _, e := range d.Errata {
			switch d.Vendor {
			case domain.AMD:
				if e.ID != "" {
					keys[e] = "A-" + e.ID
				} else {
					keys[e] = ""
				}
			case domain.Intel:
				n, ok := in.norm[e.Title]
				if !ok {
					n = textsim.Normalize(e.Title)
				}
				norm[e.Title] = n
				if k, ok := in.frozenKey[n]; ok {
					keys[e] = k
					continue
				}
				o := orders[d.Key]
				c, ok := fresh[n]
				if !ok {
					c = &cluster{minOrder: o, minSeq: e.Seq, title: n}
					fresh[n] = c
				} else if o < c.minOrder || (o == c.minOrder && e.Seq < c.minSeq) {
					c.minOrder, c.minSeq = o, e.Seq
				}
				c.members = append(c.members, e)
			default:
				keys[e] = ""
			}
		}
	}
	in.norm = norm
	clusters := make([]*cluster, 0, len(fresh))
	for _, c := range fresh {
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].minOrder != clusters[j].minOrder {
			return clusters[i].minOrder < clusters[j].minOrder
		}
		if clusters[i].minSeq != clusters[j].minSeq {
			return clusters[i].minSeq < clusters[j].minSeq
		}
		return clusters[i].title < clusters[j].title
	})
	for i, c := range clusters {
		k := fmt.Sprintf("I-%04d", in.nextLabel+i)
		for _, e := range c.members {
			keys[e] = k
		}
	}
	return keys
}

// parseIntelLabel extracts the numeric part of an "I-%04d" cluster key.
func parseIntelLabel(key string) (int, bool) {
	rest, ok := strings.CutPrefix(key, "I-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// artifactDTO is the cached per-document artifact: the parsed,
// classified document encoded as a single-document store database, plus
// its parse diagnostics.
type artifactDTO struct {
	Doc   json.RawMessage      `json:"doc"`
	Diags []specdoc.Diagnostic `json:"diags,omitempty"`
}

func encodeArtifact(p *parsedDoc) ([]byte, error) {
	one := domain.NewDatabase(taxonomy.Base())
	if err := one.Add(p.doc); err != nil {
		return nil, err
	}
	raw, err := store.Encode(one)
	if err != nil {
		return nil, err
	}
	return json.Marshal(artifactDTO{Doc: raw, Diags: p.diags})
}

func decodeArtifact(raw []byte) (*parsedDoc, error) {
	var dto artifactDTO
	if err := json.Unmarshal(raw, &dto); err != nil {
		return nil, err
	}
	r, err := store.OpenBytes(dto.Doc, store.WithFormat("v1"))
	if err != nil {
		return nil, err
	}
	one, err := r.Database()
	if err != nil {
		return nil, err
	}
	if len(one.Docs) != 1 {
		return nil, fmt.Errorf("ingest: artifact holds %d documents", len(one.Docs))
	}
	for _, d := range one.Docs {
		return &parsedDoc{doc: d, diags: dto.Diags}, nil
	}
	return nil, fmt.Errorf("ingest: empty artifact")
}
