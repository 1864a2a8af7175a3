// Package index is the query engine over a domain.Database. It
// precomputes postings lists — sorted slices of erratum ordinals — per
// vendor, document, abstract category, class, workaround category, fix
// status, observable MSR and boolean flag, and answers conjunctive
// filter queries by one windowed evaluation (Query.Page): the shortest
// postings list drives, the others advance cursors in place, residual
// predicates run on the candidates that survive every list, and only
// the requested window of matches is kept while every match is
// counted. Disjunctive category sets are unioned into one list first.
//
// Beside the postings, every snapshot keeps per-ordinal tables: the
// lowered title, its 256-bit bigram signature (title filters call
// strings.Contains only on titles whose signature holds every bit of
// the needle's), and the entry's rank in db.Unique() order (a unique
// page marks the ranks of its matches in a bit set and reads the window
// off it in order). The signature and rank cost about 36 bytes per
// entry.
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
// Ordinals are positions in db.Errata() order, so matches stream out in
// that order, and the unique-representative list is precomputed in
// db.Unique() order. Results therefore equal a linear scan of
// db.Errata() or db.Unique(), which the reference evaluator
// (internal/queryref) performs in the tests.
package index

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/pkg/domain"
)

// Index is an inverted index over one database snapshot.
type Index struct {
	db     *domain.Database
	scheme *domain.Scheme

	// errata maps ordinal -> entry, in db.Errata() order.
	errata []*domain.Erratum
	// lowTitles holds, per ordinal, strings.ToLower of the entry's
	// title, and titleSigs the bigram signature of that lowered title:
	// the tables TitleContains scans. Every constructor fills them once
	// per snapshot; MergeDelta carries survivors' rows over.
	lowTitles []string
	titleSigs []bigrams
	// uniqueOrds lists the ordinals of the unique representatives, in
	// db.Unique() order (DocKey, then Seq), and uniqueRank holds, per
	// ordinal, its position in uniqueOrds, or -1 for an entry that is
	// not a representative.
	uniqueOrds List
	uniqueRank []int32

	// Postings families are sorted key tables of Lists: Build and
	// MergeDelta produce heap-resident Ords, while FromLists installs
	// Spans viewed straight over a FormatVersion 2 file mapping, so a
	// disk-resident index never copies its postings into the heap (and
	// MergeDelta shares the spans its remap leaves unchanged).
	byVendor     Table[domain.Vendor]
	byDoc        Table[string]
	byCategory   Table[string] // any annotation dimension
	byTriggerCat Table[string] // trigger dimension only
	byClass      Table[string]
	byKey        Table[string] // cluster key -> all occurrences
	byWorkaround Table[domain.WorkaroundCategory]
	byFix        Table[domain.FixStatus]
	byMSR        Table[string]
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

// Instrument registers the index's query counters in reg: one
// intersection per postings list a query walks beyond the first, and
// one residual-predicate evaluation per candidate that survives every
// postings list (every entry when the query has no postings list) and
// reaches the per-entry predicates. Call it once, before the index
// serves concurrent queries.
func (ix *Index) Instrument(reg *obs.Registry) {
	ix.intersections = reg.Counter("rememberr_index_intersections_total",
		"Pairwise postings-list intersections performed by queries.")
	ix.residuals = reg.Counter("rememberr_index_residual_filters_total",
		"Candidate ordinals filtered through residual predicates (non-indexable filters).")
}

// Build constructs the index for a database: the postings walk, then
// the per-ordinal title and rank tables. The database must not be
// mutated afterwards while the index is in use.
func Build(db *domain.Database) *Index {
	ix := buildPostings(db)
	ix.lowerTitles()
	ix.uniqueRank, _ = ranks(ix.uniqueOrds, len(ix.errata))
	return ix
}

// lowerTitles fills lowTitles and titleSigs for every entry, lowering
// each title once and signing it in the same pass.
func (ix *Index) lowerTitles() {
	ix.lowTitles = make([]string, len(ix.errata))
	ix.titleSigs = make([]bigrams, len(ix.errata))
	for ord, e := range ix.errata {
		ix.lowTitles[ord], ix.titleSigs[ord] = lowerTitle(e.Title)
	}
}

// lowerTitle returns strings.ToLower of title and its bigram signature.
func lowerTitle(title string) (string, bigrams) {
	low := strings.ToLower(title)
	return low, sigOf(low)
}

// ranks returns, per ordinal of an n-entry index, its position in uniq,
// or -1 for an entry that is not a representative. It fails on an
// ordinal out of range or listed twice.
func ranks(uniq List, n int) ([]int32, error) {
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = -1
	}
	for i, m := 0, listLen(uniq); i < m; i++ {
		ord := uniq.At(i)
		if ord < 0 || ord >= n {
			return nil, fmt.Errorf("index: parts unique ordinal %d out of range [0,%d)", ord, n)
		}
		if rank[ord] >= 0 {
			return nil, fmt.Errorf("index: parts list unique ordinal %d twice", ord)
		}
		rank[ord] = int32(i)
	}
	return rank, nil
}

// bigrams is a 256-bit signature of a lowered title: bit h is set when
// some pair of adjacent bytes hashes to h. A substring's adjacent pairs
// are a subset of its title's, so a title whose signature lacks a bit
// of the needle's cannot contain it; a collision only costs one
// strings.Contains.
type bigrams [4]uint64

// sigOf returns the bigram signature of s.
func sigOf(s string) (g bigrams) {
	for i := 1; i < len(s); i++ {
		h := (uint32(s[i-1])<<8 | uint32(s[i])) * 0x9e3779b1 >> 24
		g[h>>6] |= 1 << (h & 63)
	}
	return g
}

// holds reports whether g has every bit of n.
func (g *bigrams) holds(n *bigrams) bool {
	return g[0]&n[0] == n[0] && g[1]&n[1] == n[1] && g[2]&n[2] == n[2] && g[3]&n[3] == n[3]
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
	w := newWalk(db, make(Ords, len(errata)))
	for ord, e := range errata {
		// Postings are appended in ascending ordinal order, so every
		// list is sorted by construction.
		w.addEntry(ord, e)
	}
	ix := &Index{db: db, scheme: db.Scheme, errata: errata}
	w.into(ix)
	ordOf := make(map[*domain.Erratum]int, len(errata))
	for ord, e := range errata {
		ordOf[e] = ord
	}
	var uniq Ords
	for _, e := range db.Unique() {
		if ord, ok := ordOf[e]; ok {
			uniq = append(uniq, ord)
		}
	}
	ix.uniqueOrds = boxed(uniq)
	return ix
}

// walk collects the postings of an entry walk in ascending ordinal
// order: each family keyed by map while it grows, sorted into a Table
// once by into. Build walks every entry, MergeDelta only the fresh ones.
type walk struct {
	scheme       *domain.Scheme
	vendorOf     map[string]domain.Vendor
	byVendor     growing[domain.Vendor]
	byDoc        growing[string]
	byCategory   growing[string]
	byTriggerCat growing[string]
	byClass      growing[string]
	byKey        growing[string]
	byWorkaround growing[domain.WorkaroundCategory]
	byFix        growing[domain.FixStatus]
	byMSR        growing[string]
	complexSet   Ords
	simOnlySet   Ords
	// trig is the positional trigger-count table addEntry writes.
	trig Ords
}

func newWalk(db *domain.Database, trig Ords) *walk {
	w := &walk{scheme: db.Scheme, vendorOf: make(map[string]domain.Vendor, len(db.Docs)), trig: trig}
	for key, d := range db.Docs {
		w.vendorOf[key] = d.Vendor
	}
	return w
}

// into installs the walk's postings in ix as sorted tables.
func (w *walk) into(ix *Index) {
	ix.byVendor = w.byVendor.table()
	ix.byDoc = w.byDoc.table()
	ix.byCategory = w.byCategory.table()
	ix.byTriggerCat = w.byTriggerCat.table()
	ix.byClass = w.byClass.table()
	ix.byKey = w.byKey.table()
	ix.byWorkaround = w.byWorkaround.table()
	ix.byFix = w.byFix.table()
	ix.byMSR = w.byMSR.table()
	ix.complexSet = boxed(w.complexSet)
	ix.simOnlySet = boxed(w.simOnlySet)
	ix.triggerCount = w.trig
}

// growing is one postings family under construction: each key gets a
// slot on first use, and the walk records (slot, ordinal) pairs in walk
// order. table lays the pairs out by key in one backing array, so a
// family costs a handful of allocations however many keys it holds.
type growing[K cmp.Ordered] struct {
	slot  map[K]int
	slots []slot[K]
	pairs [][2]int32
}

type slot[K cmp.Ordered] struct {
	key   K
	last  int // the ordinal added last; table's write cursor
	count int
}

// add appends ord to key's list unless it is already the last element
// (the same erratum can carry a category or MSR several times), and
// reports whether it appended.
func (g *growing[K]) add(key K, ord int) bool {
	i, ok := g.slot[key]
	switch {
	case !ok:
		if g.slot == nil {
			g.slot = make(map[K]int)
		}
		i = len(g.slots)
		g.slot[key] = i
		g.slots = append(g.slots, slot[K]{key: key})
	case g.slots[i].last == ord:
		return false
	}
	g.slots[i].last = ord
	g.slots[i].count++
	g.pairs = append(g.pairs, [2]int32{int32(i), int32(ord)})
	return true
}

// table returns the family as a Table in ascending key order. Pairs
// are scattered into their slot's run in walk order, so every list is
// ascending.
func (g *growing[K]) table() Table[K] {
	order := make([]int, len(g.slots)) // slots in key order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(g.slots[a].key, g.slots[b].key) })
	t := Table[K]{Keys: make([]K, len(order)), Lists: make([]List, len(order))}
	arena := make([]int, len(g.pairs))
	boxes := make([]Ords, len(order))
	off := 0
	for i, j := range order {
		sl := &g.slots[j]
		t.Keys[i] = sl.key
		boxes[i] = arena[off : off+sl.count : off+sl.count]
		t.Lists[i] = &boxes[i]
		sl.last = off
		off += sl.count
	}
	for _, p := range g.pairs {
		sl := &g.slots[p[0]]
		arena[sl.last] = int(p[1])
		sl.last++
	}
	return t
}

// boxed returns o as a List, nil when o is.
func boxed(o Ords) List {
	if o == nil {
		return nil
	}
	return &o
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
	ords := ix.byKey.Get(key)
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
// call Page, All, Unique or Count. A Query is single-use per goroutine;
// the Index behind it is safe to share.
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
func (q *Query) Vendor(v domain.Vendor) *Query { return q.list(q.ix.byVendor.Get(v)) }

// InDocument keeps errata of one document.
func (q *Query) InDocument(key string) *Query { return q.list(q.ix.byDoc.Get(key)) }

// WithCategory keeps errata annotated with the abstract category in any
// dimension.
func (q *Query) WithCategory(categoryID string) *Query {
	return q.list(q.ix.byCategory.Get(categoryID))
}

// AnyCategory keeps errata annotated with at least one of the given
// categories (disjunctive): the postings lists are unioned into one.
// With no categories the query matches nothing.
func (q *Query) AnyCategory(categoryIDs ...string) *Query {
	var u []int
	for _, c := range categoryIDs {
		u = union(u, Ints(q.ix.byCategory.Get(c)))
	}
	return q.list(Ords(u))
}

// WithClass keeps errata with at least one item of the given class.
func (q *Query) WithClass(classID string) *Query { return q.list(q.ix.byClass.Get(classID)) }

// WithAllTriggers keeps errata requiring at least all the given
// triggers (conjunctive): one postings list per category. With no
// categories the filter is a no-op.
func (q *Query) WithAllTriggers(categoryIDs ...string) *Query {
	for _, c := range categoryIDs {
		q.list(q.ix.byTriggerCat.Get(c))
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
	return q.list(q.ix.byWorkaround.Get(w))
}

// Fix keeps errata with the given fix status.
func (q *Query) Fix(f domain.FixStatus) *Query { return q.list(q.ix.byFix.Get(f)) }

// Complex keeps errata mentioning a complex set of conditions.
func (q *Query) Complex() *Query { return q.list(q.ix.complexSet) }

// SimulationOnly keeps errata observed only in simulation.
func (q *Query) SimulationOnly() *Query { return q.list(q.ix.simOnlySet) }

// ObservableIn keeps errata whose effects are observable in the MSR.
func (q *Query) ObservableIn(msr string) *Query { return q.list(q.ix.byMSR.Get(msr)) }

// DisclosedBetween keeps errata disclosed in [from, to). Disclosure
// dates are a continuous axis, so this stays a residual predicate.
func (q *Query) DisclosedBetween(from, to time.Time) *Query {
	return q.pred(func(ord int) bool {
		d := q.ix.errata[ord].Disclosed
		return !d.IsZero() && !d.Before(from) && d.Before(to)
	})
}

// TitleContains keeps errata whose title contains the substring, both
// sides lowered with strings.ToLower. It stays a residual predicate
// over the lowered-title table built once per snapshot (MergeDelta
// reuses surviving entries' rows), so a query lowers only its own
// substring, and it calls strings.Contains only on titles whose bigram
// signature holds every bit of the substring's.
func (q *Query) TitleContains(sub string) *Query {
	lower := strings.ToLower(sub)
	want := sigOf(lower)
	titles, sigs := q.ix.lowTitles, q.ix.titleSigs
	return q.pred(func(ord int) bool {
		return sigs[ord].holds(&want) && strings.Contains(titles[ord], lower)
	})
}

// Page evaluates the query and returns the window [offset,
// offset+limit) of its matches, with the total number of matches. The
// matches are every matching entry (duplicates counted individually)
// in db.Errata() order, or with unique one representative per matching
// deduplicated erratum in db.Unique() order. Only the window is kept:
// matches stream out of the postings intersection in ascending ordinal
// order and are counted, and a unique page marks its representatives'
// ranks in a bit set of UniqueCount() bits and reads the window off it
// in rank order. offset and limit must not be negative.
func (q *Query) Page(offset, limit int, unique bool) (ords []int, total int) {
	ix := q.ix
	if len(q.lists) == 0 && len(q.preds) == 0 {
		// No filter: the matches are every ordinal, or uniqueOrds.
		total = len(ix.errata)
		if unique {
			total = listLen(ix.uniqueOrds)
		}
		lo := min(offset, total)
		ords = make([]int, min(limit, total-lo))
		for i := range ords {
			if ords[i] = lo + i; unique {
				ords[i] = ix.uniqueOrds.At(lo + i)
			}
		}
		return ords, total
	}
	if !unique {
		bound := len(ix.errata)
		for _, l := range q.lists {
			bound = min(bound, l.Len())
		}
		ords = make([]int, 0, min(limit, max(bound-offset, 0)))
		q.each(func(ord int) {
			if total >= offset && total-offset < limit {
				ords = append(ords, ord)
			}
			total++
		})
		return ords, total
	}
	var set []uint64
	if limit > 0 {
		set = make([]uint64, (listLen(ix.uniqueOrds)+63)/64)
	}
	q.each(func(ord int) {
		if r := ix.uniqueRank[ord]; r >= 0 {
			total++
			if set != nil {
				set[r>>6] |= 1 << (r & 63)
			}
		}
	})
	return ix.ranked(set, offset, min(limit, max(total-offset, 0))), total
}

// ranked returns the ordinals of the ranks set in set, skipping the
// first offset of them and keeping at most limit, in rank order.
func (ix *Index) ranked(set []uint64, offset, limit int) []int {
	out := make([]int, 0, limit)
	for w, word := range set {
		if len(out) == limit {
			break
		}
		if c := bits.OnesCount64(word); offset >= c {
			offset -= c
			continue
		}
		for ; word != 0 && len(out) < limit; word &= word - 1 {
			if offset > 0 {
				offset--
				continue
			}
			out = append(out, ix.uniqueOrds.At(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// each calls visit with every matching ordinal, ascending. The shortest
// postings list drives; every other list keeps a cursor that only moves
// forward, so the intersection allocates nothing per candidate.
func (q *Query) each(visit func(ord int)) {
	ix := q.ix
	if len(q.lists) == 0 {
		// No indexable filter: the predicates run over every ordinal.
		n := len(ix.errata)
		ix.residuals.Add(int64(n))
		for ord := 0; ord < n; ord++ {
			if q.keep(ord) {
				visit(ord)
			}
		}
		return
	}
	var buf [8]cursor
	curs := buf[:0]
	for _, l := range q.lists {
		curs = append(curs, cursorOf(l))
	}
	slices.SortFunc(curs, func(a, b cursor) int { return a.n - b.n })
	ix.intersections.Add(int64(len(curs) - 1))
	drive, rest := curs[0], curs[1:]
	residuals := 0
next:
	for d := 0; d < drive.n; d++ {
		ord := drive.at(d)
		for k := range rest {
			c := &rest[k]
			for c.i < c.n && c.at(c.i) < ord {
				c.i++
			}
			if c.i == c.n {
				break next // a list ran out: nothing further matches
			}
			if c.at(c.i) != ord {
				continue next
			}
		}
		if len(q.preds) > 0 {
			residuals++
			if !q.keep(ord) {
				continue
			}
		}
		visit(ord)
	}
	ix.residuals.Add(int64(residuals))
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

// All returns every matching entry (duplicates counted individually),
// in db.Errata() order.
func (q *Query) All() []*domain.Erratum {
	ords, _ := q.Page(0, math.MaxInt, false)
	return q.ix.entries(ords)
}

// Unique returns one representative per matching deduplicated erratum,
// in db.Unique() order.
func (q *Query) Unique() []*domain.Erratum {
	ords, _ := q.Page(0, math.MaxInt, true)
	return q.ix.entries(ords)
}

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

// Count returns the number of unique matches, keeping no ordinals.
func (q *Query) Count() int {
	_, n := q.Page(0, 0, true)
	return n
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
