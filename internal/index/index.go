// Package index is the query engine over a domain.Database. It
// precomputes postings lists — sorted slices of erratum ordinals — per
// vendor, document, abstract category, class, workaround category, fix
// status, observable MSR and boolean flag, and answers conjunctive
// filter queries by sorted-slice intersection (with per-filter union
// for disjunctive category sets) plus residual predicates for the
// filters no postings list answers.
//
// FilterTable (filters.go) declares the filter vocabulary once: the
// /v1/errata query parameters and the `rememberr query` flags derive
// from it, and the root package's fluent Query compiles onto Query.
//
// An Index is an immutable snapshot: it is built once from a database
// and is safe for concurrent readers, which is what the serving layer
// (internal/serve) relies on. Mutating the underlying database after
// Build leaves the index stale; rebuild it instead.
//
// Ordinals are positions in db.Errata() order, so intersection results
// come out in that order, and the unique-representative list is
// precomputed in db.Unique() order. Results therefore equal a linear
// scan of db.Errata() or db.Unique(), which the reference evaluator
// (internal/queryref) performs in the tests.
package index

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/pkg/domain"
)

// Index is an inverted index over one database snapshot.
type Index struct {
	db     *domain.Database
	scheme domain.Scheme

	// errata maps ordinal -> entry, in db.Errata() order.
	errata []*domain.Erratum
	// lowTitles holds, per ordinal, strings.ToLower of the entry's
	// title: the table TitleContains scans. Every constructor fills it
	// once per snapshot; MergeDelta carries survivors' rows over.
	lowTitles []string
	// uniqueOrds lists the ordinals of the unique representatives, in
	// db.Unique() order (DocKey, then Seq).
	uniqueOrds List

	// Postings lists are held behind the List interface: Build and
	// MergeDelta produce heap-resident Ords, while FromLists installs
	// Spans viewed straight over a FormatVersion 2 file mapping, so a
	// disk-resident index never copies its postings into the heap.
	byVendor     map[domain.Vendor]List
	byDoc        map[string]List
	byCategory   map[string]List // any annotation dimension
	byTriggerCat map[string]List // trigger dimension only
	byClass      map[string]List
	byKey        map[string]List // cluster key -> all occurrences
	byWorkaround map[domain.WorkaroundCategory]List
	byFix        map[domain.FixStatus]List
	byMSR        map[string]List
	complexSet   List
	simOnlySet   List

	// triggerCount holds, per ordinal, the number of distinct trigger
	// categories (the quantity MinTriggers filters on).
	triggerCount List

	// Instruments (nil until Instrument is called; obs instruments are
	// no-ops on nil receivers, so uninstrumented queries pay one branch).
	intersections *obs.Counter
	residuals     *obs.Counter
}

// Instrument registers the index's query counters in reg: the number
// of pairwise postings-list intersections performed and the number of
// residual-predicate evaluations (candidates that could not be answered
// from postings lists alone and fell back to per-entry predicates).
// Call it once, before the index serves concurrent queries.
func (ix *Index) Instrument(reg *obs.Registry) {
	ix.intersections = reg.Counter("rememberr_index_intersections_total",
		"Pairwise postings-list intersections performed by queries.")
	ix.residuals = reg.Counter("rememberr_index_residual_filters_total",
		"Candidate ordinals filtered through residual predicates (non-indexable filters).")
}

// Build constructs the index for a database: the postings walk, then
// the lowered-title table. The database must not be mutated afterwards
// while the index is in use.
func Build(db *domain.Database) *Index {
	ix := buildPostings(db)
	ix.lowTitles = make([]string, len(ix.errata))
	for ord, e := range ix.errata {
		ix.lowTitles[ord] = strings.ToLower(e.Title)
	}
	return ix
}

// BuildParts returns the postings of Build(db) from the postings walk
// alone, lowering no title: what the FormatVersion 2 encoder persists.
// Every list lives in the heap, so Ints reads it without copying.
func BuildParts(db *domain.Database) *ListParts {
	ix := buildPostings(db)
	return &ListParts{
		UniqueOrds:   ix.uniqueOrds,
		ByVendor:     ix.byVendor,
		ByDoc:        ix.byDoc,
		ByCategory:   ix.byCategory,
		ByTriggerCat: ix.byTriggerCat,
		ByClass:      ix.byClass,
		ByKey:        ix.byKey,
		ByWorkaround: ix.byWorkaround,
		ByFix:        ix.byFix,
		ByMSR:        ix.byMSR,
		ComplexSet:   ix.complexSet,
		SimOnlySet:   ix.simOnlySet,
		TriggerCount: ix.triggerCount,
	}
}

// buildPostings walks every entry once with addEntry and derives the
// unique-representative list from db.Unique(). The result has no
// lowered-title table; Build adds it.
func buildPostings(db *domain.Database) *Index {
	errata := db.Errata()
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		byVendor:     make(map[domain.Vendor]List),
		byDoc:        make(map[string]List),
		byCategory:   make(map[string]List),
		byTriggerCat: make(map[string]List),
		byClass:      make(map[string]List),
		byKey:        make(map[string]List),
		byWorkaround: make(map[domain.WorkaroundCategory]List),
		byFix:        make(map[domain.FixStatus]List),
		byMSR:        make(map[string]List),
		triggerCount: make(Ords, len(errata)),
	}
	vendorOf := vendorsOf(db)
	for ord, e := range errata {
		// Postings are appended in ascending ordinal order, so every
		// list is sorted by construction.
		ix.addEntry(ord, e, vendorOf)
	}
	ordOf := make(map[*domain.Erratum]int, len(errata))
	for ord, e := range errata {
		ordOf[e] = ord
	}
	for _, e := range db.Unique() {
		if ord, ok := ordOf[e]; ok {
			ix.uniqueOrds = apOrd(ix.uniqueOrds, ord)
		}
	}
	return ix
}

// vendorsOf maps each document key of db to its vendor.
func vendorsOf(db *domain.Database) map[string]domain.Vendor {
	vendorOf := make(map[string]domain.Vendor, len(db.Docs))
	for key, d := range db.Docs {
		vendorOf[key] = d.Vendor
	}
	return vendorOf
}

// appendOnce appends ord to m[key] unless it is already the last
// element (the same erratum can carry a category or MSR several times),
// and reports whether it appended.
func appendOnce(m map[string]List, key string, ord int) bool {
	if l := m[key]; l != nil && l.At(l.Len()-1) == ord {
		return false
	}
	pushOrd(m, key, ord)
	return true
}

// Database returns the indexed database snapshot.
func (ix *Index) Database() *domain.Database { return ix.db }

// Size returns the number of indexed entries (duplicates counted
// individually).
func (ix *Index) Size() int { return len(ix.errata) }

// UniqueCount returns the number of unique representatives.
func (ix *Index) UniqueCount() int { return listLen(ix.uniqueOrds) }

// Stats computes the corpus statistics of the indexed database from the
// precomputed unique-representative list, equal to db.ComputeStats()
// without its Unique pass.
func (ix *Index) Stats() domain.Stats {
	return ix.db.StatsOf(listLen(ix.uniqueOrds), func(i int) *domain.Erratum {
		return ix.errata[ix.uniqueOrds.At(i)]
	})
}

// ByKey returns every entry bearing the given cluster key, in document
// order.
func (ix *Index) ByKey(key string) []*domain.Erratum {
	ords := ix.byKey[key]
	out := make([]*domain.Erratum, listLen(ords))
	for i := range out {
		out[i] = ix.errata[ords.At(i)]
	}
	return out
}

// Query is one conjunctive filter query under compilation: a set of
// postings lists that must all match, plus residual predicates for the
// non-indexable filters (title substrings, disclosure windows, trigger
// count thresholds). Build one with Index.Query, chain filters, then
// call All or Unique. A Query is single-use per goroutine; the Index
// behind it is safe to share.
type Query struct {
	ix    *Index
	lists []List
	preds []func(ord int) bool
}

// Query starts a new query over the index.
func (ix *Index) Query() *Query { return &Query{ix: ix} }

// none is a shared empty postings list marking a filter that matches
// nothing (e.g. an unknown category).
var none = Ords{}

func (q *Query) list(l List) *Query {
	if l == nil {
		l = none
	}
	q.lists = append(q.lists, l)
	return q
}

func (q *Query) pred(f func(ord int) bool) *Query {
	q.preds = append(q.preds, f)
	return q
}

// Vendor keeps errata of one vendor.
func (q *Query) Vendor(v domain.Vendor) *Query { return q.list(q.ix.byVendor[v]) }

// InDocument keeps errata of one document.
func (q *Query) InDocument(key string) *Query { return q.list(q.ix.byDoc[key]) }

// WithCategory keeps errata annotated with the abstract category in any
// dimension.
func (q *Query) WithCategory(categoryID string) *Query {
	return q.list(q.ix.byCategory[categoryID])
}

// AnyCategory keeps errata annotated with at least one of the given
// categories (disjunctive): the postings lists are unioned into one.
// With no categories the query matches nothing.
func (q *Query) AnyCategory(categoryIDs ...string) *Query {
	var u []int
	for _, c := range categoryIDs {
		u = union(u, Ints(q.ix.byCategory[c]))
	}
	return q.list(Ords(u))
}

// WithClass keeps errata with at least one item of the given class.
func (q *Query) WithClass(classID string) *Query { return q.list(q.ix.byClass[classID]) }

// WithAllTriggers keeps errata requiring at least all the given
// triggers (conjunctive): one postings list per category. With no
// categories the filter is a no-op.
func (q *Query) WithAllTriggers(categoryIDs ...string) *Query {
	for _, c := range categoryIDs {
		q.list(q.ix.byTriggerCat[c])
	}
	return q
}

// MinTriggers keeps errata with at least n distinct trigger categories,
// using the precomputed per-entry counts.
func (q *Query) MinTriggers(n int) *Query {
	return q.pred(func(ord int) bool { return q.ix.triggerCount.At(ord) >= n })
}

// Workaround keeps errata with the given workaround category.
func (q *Query) Workaround(w domain.WorkaroundCategory) *Query {
	return q.list(q.ix.byWorkaround[w])
}

// Fix keeps errata with the given fix status.
func (q *Query) Fix(f domain.FixStatus) *Query { return q.list(q.ix.byFix[f]) }

// Complex keeps errata mentioning a complex set of conditions.
func (q *Query) Complex() *Query { return q.list(q.ix.complexSet) }

// SimulationOnly keeps errata observed only in simulation.
func (q *Query) SimulationOnly() *Query { return q.list(q.ix.simOnlySet) }

// ObservableIn keeps errata whose effects are observable in the MSR.
func (q *Query) ObservableIn(msr string) *Query { return q.list(q.ix.byMSR[msr]) }

// DisclosedBetween keeps errata disclosed in [from, to). Disclosure
// dates are a continuous axis, so this stays a residual predicate.
func (q *Query) DisclosedBetween(from, to time.Time) *Query {
	return q.pred(func(ord int) bool {
		d := q.ix.errata[ord].Disclosed
		return !d.IsZero() && !d.Before(from) && d.Before(to)
	})
}

// TitleContains keeps errata whose title contains the substring, both
// sides lowered with strings.ToLower. It stays a residual predicate,
// but it scans the lowered-title table built once per snapshot
// (MergeDelta reuses surviving entries' rows), so a query lowers only
// its own substring.
func (q *Query) TitleContains(sub string) *Query {
	lower := strings.ToLower(sub)
	titles := q.ix.lowTitles
	return q.pred(func(ord int) bool { return strings.Contains(titles[ord], lower) })
}

// matchOrdinals evaluates the query to a sorted ordinal slice.
func (q *Query) matchOrdinals() []int {
	if len(q.lists) == 0 {
		// No indexable filter: the predicates run over every ordinal
		// directly, with no all-ordinals candidate slice.
		n := len(q.ix.errata)
		if len(q.preds) > 0 {
			q.ix.residuals.Add(int64(n))
		}
		out := make([]int, 0, n)
		for ord := 0; ord < n; ord++ {
			if q.keep(ord) {
				out = append(out, ord)
			}
		}
		return out
	}
	lists := make([]List, len(q.lists))
	copy(lists, q.lists)
	sort.Slice(lists, func(i, j int) bool { return lists[i].Len() < lists[j].Len() })
	cand := Ints(lists[0])
	merged := int64(0)
	for _, l := range lists[1:] {
		if len(cand) == 0 {
			break
		}
		cand = intersectInto(cand, l)
		merged++
	}
	q.ix.intersections.Add(merged)
	if len(q.preds) == 0 || len(cand) == 0 {
		return cand
	}
	q.ix.residuals.Add(int64(len(cand)))
	out := make([]int, 0, len(cand))
	for _, ord := range cand {
		if q.keep(ord) {
			out = append(out, ord)
		}
	}
	return out
}

// keep reports whether ord passes every residual predicate.
func (q *Query) keep(ord int) bool {
	for _, p := range q.preds {
		if !p(ord) {
			return false
		}
	}
	return true
}

// AllOrdinals returns the ordinals of every matching entry (duplicates
// counted individually), ascending, which is db.Errata() order. The
// slice may be a postings list of the index itself and must be treated
// as read-only.
func (q *Query) AllOrdinals() []int { return q.matchOrdinals() }

// UniqueOrdinals returns the ordinal of one representative per matching
// deduplicated erratum, in db.Unique() order.
func (q *Query) UniqueOrdinals() []int {
	ords := q.matchOrdinals()
	if len(ords) == 0 {
		return nil
	}
	matched := make([]bool, len(q.ix.errata))
	for _, ord := range ords {
		matched[ord] = true
	}
	out := make([]int, 0, len(ords))
	for i, n := 0, listLen(q.ix.uniqueOrds); i < n; i++ {
		if ord := q.ix.uniqueOrds.At(i); matched[ord] {
			out = append(out, ord)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// All returns every matching entry (duplicates counted individually),
// in db.Errata() order.
func (q *Query) All() []*domain.Erratum { return q.ix.entries(q.AllOrdinals()) }

// Unique returns one representative per matching deduplicated erratum,
// in db.Unique() order.
func (q *Query) Unique() []*domain.Erratum { return q.ix.entries(q.UniqueOrdinals()) }

// entries maps ordinals to their entries.
func (ix *Index) entries(ords []int) []*domain.Erratum {
	if len(ords) == 0 {
		return nil
	}
	out := make([]*domain.Erratum, len(ords))
	for i, ord := range ords {
		out[i] = ix.errata[ord]
	}
	return out
}

// Count returns the number of unique matches.
func (q *Query) Count() int { return len(q.UniqueOrdinals()) }

// intersect merges two sorted ordinal slices into their intersection.
func intersect(a, b []int) []int {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]int, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// union merges two sorted ordinal slices into their sorted union.
func union(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
