package index

import (
	"bytes"
	"fmt"
	"sort"

	"repro/pkg/domain"
)

// MergeDelta builds the index for db incrementally from a previously
// built index instead of walking every entry's annotation again. It is
// the postings-level half of the streaming-ingest path (internal/ingest):
// entries shared by pointer between prev's database and db keep their
// postings (remapped to the new ordinals), entries that disappeared are
// dropped, and only entries absent from prev pay the full per-entry
// annotation walk. It also returns that remap: remap[old] is the new
// ordinal of prev's entry old, or -1 when it is gone, so tables kept
// beside the index by ordinal (the serving layer's response fragments)
// carry their survivors' rows the same way.
//
// Contract: an *Erratum shared between the two databases must be
// completely unchanged — annotation, flags, disclosure, and cluster key
// included. A delta producer that changes anything about an entry (for
// example a content-addressed dedup label that widened because another
// title with the same hash prefix arrived) must clone the entry (and
// shallow-copy its document) instead of mutating it in place; the stale
// pointer then simply drops out of the remap and the clone is indexed
// as a new entry. Document metadata may change between snapshots
// (insertions shift Order), but the relative order of surviving
// documents — and hence of surviving entries — must be preserved, which
// domain.AssignOrders guarantees: the ordinal remap is then monotonic
// and every remapped postings list stays sorted.
//
// The cost is O(batch) apart from integer work over the survivors: the
// remap compares each document's entries with its previous ordinal
// block (byDoc) by pointer, every postings family — byKey included — is
// remapped through it, the unique-representative list is carried over
// with only the clusters that lost or gained an entry recomputed, and
// the unique ranks are rebuilt from it.
//
// MergeDelta(nil, db) and a merge against an unrelated previous index
// both degenerate to Build(db) semantics: with no shared entries nothing
// remaps and everything is indexed fresh. The differential fuzz target
// FuzzDeltaMerge (internal/ingest) pins MergeDelta == Build on the union
// for arbitrary ingest sequences.
func MergeDelta(prev *Index, db *domain.Database) (*Index, []int) {
	if prev == nil {
		return Build(db), nil
	}
	docs := db.Documents()
	n := 0
	for _, d := range docs {
		n += len(d.Errata)
	}
	// starts[i] is the first ordinal of docs[i]: each document's entries
	// are one contiguous block, in prev as in db.
	errata := make([]*domain.Erratum, 0, n)
	starts := make([]int, len(docs))
	remap := make([]int, len(prev.errata))
	for i := range remap {
		remap[i] = -1
	}
	var fresh []int // new ordinals indexed fresh, ascending
	for i, d := range docs {
		starts[i] = len(errata)
		errata = append(errata, d.Errata...)
		fresh = matchDoc(prev, d, starts[i], remap, fresh)
	}

	// Index the fresh entries into a scratch index first: its walk
	// appends in ascending ordinal order, so its lists are sorted, and
	// each merged list below is one pass over a remapped previous list
	// (sorted, since remap is monotonic) and the scratch list — exactly
	// what a full Build appends. Positional trigger counts, lowered
	// titles and their signatures go straight into the merged tables:
	// the scratch walk and the lowering write the fresh rows, the remap
	// loop the survivors' (prev's counts are read through List so a
	// span-backed previous index works).
	trig := make(Ords, n)
	low := make([]string, n)
	sigs := make([]bigrams, n)
	add := &Index{
		scheme:       db.Scheme,
		byVendor:     make(map[domain.Vendor]List),
		byDoc:        make(map[string]List),
		byCategory:   make(map[string]List),
		byTriggerCat: make(map[string]List),
		byClass:      make(map[string]List),
		byKey:        make(map[string]List),
		byWorkaround: make(map[domain.WorkaroundCategory]List),
		byFix:        make(map[domain.FixStatus]List),
		byMSR:        make(map[string]List),
		triggerCount: trig,
	}
	vendorOf := vendorsOf(db)
	for _, ord := range fresh {
		add.addEntry(ord, errata[ord], vendorOf)
		low[ord], sigs[ord] = lowerTitle(errata[ord].Title)
	}
	for old, o := range remap {
		if o >= 0 {
			trig[o] = prev.triggerCount.At(old)
			low[o], sigs[o] = prev.lowTitles[old], prev.titleSigs[old]
		}
	}
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		lowTitles:    low,
		titleSigs:    sigs,
		byVendor:     mergePostings(prev.byVendor, add.byVendor, remap),
		byDoc:        mergePostings(prev.byDoc, add.byDoc, remap),
		byCategory:   mergePostings(prev.byCategory, add.byCategory, remap),
		byTriggerCat: mergePostings(prev.byTriggerCat, add.byTriggerCat, remap),
		byClass:      mergePostings(prev.byClass, add.byClass, remap),
		byKey:        mergePostings(prev.byKey, add.byKey, remap),
		byWorkaround: mergePostings(prev.byWorkaround, add.byWorkaround, remap),
		byFix:        mergePostings(prev.byFix, add.byFix, remap),
		byMSR:        mergePostings(prev.byMSR, add.byMSR, remap),
		complexSet:   mergeList(prev.complexSet, add.complexSet, remap),
		simOnlySet:   mergeList(prev.simOnlySet, add.simOnlySet, remap),
		triggerCount: trig,
	}

	ix.uniqueOrds = ix.mergeUnique(prev, remap, fresh, docs, starts)
	ix.uniqueRank, _ = ranks(ix.uniqueOrds, n)
	return ix, remap
}

// matchDoc maps document d's entries, at new ordinals base onward, onto
// prev's ordinals of the same document by pointer, writing remap and
// appending the new ordinals of entries prev does not hold to fresh. An
// unchanged document compares position by position; one that changed
// (replaced, or shallow-copied around relabelled clones) looks its
// entries up in a map over its own previous block only.
func matchDoc(prev *Index, d *domain.Document, base int, remap, fresh []int) []int {
	old := prev.byDoc[d.Key]
	n := listLen(old)
	same := n == len(d.Errata)
	for j := 0; same && j < n; j++ {
		same = prev.errata[old.At(j)] == d.Errata[j]
	}
	if same {
		for j := 0; j < n; j++ {
			remap[old.At(j)] = base + j
		}
		return fresh
	}
	at := make(map[*domain.Erratum]int, n)
	for j := 0; j < n; j++ {
		at[prev.errata[old.At(j)]] = old.At(j)
	}
	for j, e := range d.Errata {
		if o, ok := at[e]; ok {
			remap[o] = base + j
		} else {
			fresh = append(fresh, base+j)
		}
	}
	return fresh
}

// mergeUnique carries prev's unique-representative list over to ix. A
// cluster's representative can only change when the cluster lost or
// gained an entry (survivors keep their Seq and their documents'
// relative order), so the keys of the removed and the fresh entries
// name every cluster to recompute: their old representatives are
// dropped, and ix.byKey yields their members for db.Unique()'s rule.
// Fresh keyless entries are their own representatives. The recomputed
// ones are sorted into db.Unique() order (DocKey, then Seq) and merged
// with the remapped survivors, which are already in that order.
func (ix *Index) mergeUnique(prev *Index, remap, fresh []int, docs []*domain.Document, starts []int) List {
	touched := make(map[string]bool)
	for old, o := range remap {
		if o < 0 && prev.errata[old].Key != "" {
			touched[prev.errata[old].Key] = true
		}
	}
	var reps []int
	for _, ord := range fresh {
		if k := ix.errata[ord].Key; k != "" {
			touched[k] = true
		} else {
			reps = append(reps, ord)
		}
	}
	drop := make([]bool, len(prev.errata))
	for k := range touched {
		l := prev.byKey[k]
		for i, m := 0, listLen(l); i < m; i++ {
			drop[l.At(i)] = true
		}
		reps = ix.clusterReps(k, docs, starts, reps)
	}
	less := func(a, b *domain.Erratum) bool {
		if a.DocKey != b.DocKey {
			return a.DocKey < b.DocKey
		}
		return a.Seq < b.Seq
	}
	sort.Slice(reps, func(i, j int) bool { return less(ix.errata[reps[i]], ix.errata[reps[j]]) })

	out := make(Ords, 0, listLen(prev.uniqueOrds)+len(reps))
	r := 0
	for i, m := 0, listLen(prev.uniqueOrds); i < m; i++ {
		old := prev.uniqueOrds.At(i)
		o := remap[old]
		if o < 0 || drop[old] {
			continue
		}
		for r < len(reps) && less(ix.errata[reps[r]], ix.errata[o]) {
			out = append(out, reps[r])
			r++
		}
		out = append(out, o)
	}
	return append(out, reps[r:]...)
}

// clusterReps appends the representatives of every cluster bearing key
// to reps, by db.Unique()'s rule: clusters are (DocKeyVendor, key), and
// each keeps its member of lowest document Order, then lowest Seq,
// walking members in document order so the first of equals wins.
func (ix *Index) clusterReps(key string, docs []*domain.Document, starts, reps []int) []int {
	type best struct {
		vendor     string
		ord, order int
	}
	var bs []best
	l := ix.byKey[key]
	for i, m := 0, listLen(l); i < m; i++ {
		ord := l.At(i)
		e := ix.errata[ord]
		order := docs[sort.SearchInts(starts, ord+1)-1].Order
		v := e.DocKeyVendor()
		j := 0
		for j < len(bs) && bs[j].vendor != v {
			j++
		}
		switch {
		case j == len(bs):
			bs = append(bs, best{v, ord, order})
		case order < bs[j].order || (order == bs[j].order && e.Seq < ix.errata[bs[j].ord].Seq):
			bs[j].ord, bs[j].order = ord, order
		}
	}
	for _, b := range bs {
		reps = append(reps, b.ord)
	}
	return reps
}

// addEntry walks one entry's indexable attributes, appending its ordinal
// to every postings list and writing its trigger count at ord. It is the
// one annotation walk: Build runs it over every entry, MergeDelta over
// the fresh ones. Callers append in ascending ordinal order so every
// list stays sorted.
func (ix *Index) addEntry(ord int, e *domain.Erratum, vendorOf map[string]domain.Vendor) {
	if e.Key != "" {
		pushOrd(ix.byKey, e.Key, ord)
	}
	if v, ok := vendorOf[e.DocKey]; ok {
		pushOrd(ix.byVendor, v, ord)
	}
	pushOrd(ix.byDoc, e.DocKey, ord)
	pushOrd(ix.byWorkaround, e.WorkaroundCat, ord)
	pushOrd(ix.byFix, e.Fix, ord)
	for _, m := range e.Ann.MSRs {
		appendOnce(ix.byMSR, m, ord)
	}
	if e.Ann.ComplexConditions {
		ix.complexSet = apOrd(ix.complexSet, ord)
	}
	if e.Ann.SimulationOnly {
		ix.simOnlySet = apOrd(ix.simOnlySet, ord)
	}
	// The trigger count is the number of distinct trigger categories,
	// which is how many of them appendOnce appends.
	triggers := 0
	for _, k := range domain.Kinds {
		for _, it := range e.Ann.Items(k) {
			appendOnce(ix.byCategory, it.Category, ord)
			if k == domain.Trigger && appendOnce(ix.byTriggerCat, it.Category, ord) {
				triggers++
			}
			if cl := ix.scheme.ClassOf(it.Category); cl != "" {
				appendOnce(ix.byClass, cl, ord)
			}
		}
	}
	ix.triggerCount.(Ords)[ord] = triggers
}

// mergePostings builds one postings family of the merged index: each
// list of prev's family rewritten through remap, removed ordinals
// dropped, and merged with the fresh entries' list of the same key from
// add. Empty lists are dropped (Build never stores one, and equality
// with Build is the whole point). The output is allocated in bulk,
// not per list: the presized map, one backing array shared by every
// merged list (capped per list, so nothing appends into a neighbour)
// and one array of *Ords boxes; a key only fresh entries hold takes
// add's list over as it is. prev's lists may be spans over a
// mapped file; the output is always heap-resident.
func mergePostings[K comparable](prev, add map[K]List, remap []int) map[K]List {
	total := 0
	for _, l := range prev {
		total += listLen(l)
	}
	for _, l := range add {
		total += listLen(l)
	}
	arena := make([]int, 0, total)
	boxes := make([]Ords, 0, len(prev))
	out := make(map[K]List, len(prev)+len(add))
	for k, l := range prev {
		start := len(arena)
		arena = mergeInto(arena, l, Ints(add[k]), remap)
		if len(arena) > start {
			boxes = append(boxes, arena[start:len(arena):len(arena)])
			out[k] = &boxes[len(boxes)-1]
		}
	}
	for k, l := range add {
		if _, ok := prev[k]; !ok {
			out[k] = l
		}
	}
	return out
}

// mergeList is mergePostings for one list.
func mergeList(l, add List, remap []int) List {
	out := Ords(mergeInto(make([]int, 0, listLen(l)+listLen(add)), l, Ints(add), remap))
	return &out
}

// mergeInto appends to dst the sorted union of l's surviving ordinals,
// remapped, and the sorted fresh ordinals (the two never share one).
func mergeInto(dst []int, l List, fresh, remap []int) []int {
	j := 0
	for i, n := 0, listLen(l); i < n; i++ {
		v := remap[l.At(i)]
		if v < 0 {
			continue
		}
		for j < len(fresh) && fresh[j] < v {
			dst = append(dst, fresh[j])
			j++
		}
		dst = append(dst, v)
	}
	return append(dst, fresh[j:]...)
}

// DebugDump renders the complete index state — entry identities with
// their trigger counts, unique ranks, lowered titles and title
// signatures, every postings family in
// sorted key order, flags and the unique-representative ordinals — as
// deterministic text. Two indexes over equal databases dump identically
// iff they are structurally equal, which is what the delta-merge
// differential tests and the FuzzDeltaMerge target compare.
func (ix *Index) DebugDump() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "entries %d\n", len(ix.errata))
	for ord, e := range ix.errata {
		fmt.Fprintf(&b, "e %d %s key=%q trig=%d rank=%d low=%q sig=%x\n",
			ord, e.FullID(), e.Key, ix.triggerCount.At(ord), ix.uniqueRank[ord], ix.lowTitles[ord], ix.titleSigs[ord])
	}
	fmt.Fprintf(&b, "unique %v\n", Ints(ix.uniqueOrds))
	dumpPostings(&b, "vendor", ix.byVendor)
	dumpPostings(&b, "doc", ix.byDoc)
	dumpPostings(&b, "category", ix.byCategory)
	dumpPostings(&b, "trigger", ix.byTriggerCat)
	dumpPostings(&b, "class", ix.byClass)
	dumpPostings(&b, "key", ix.byKey)
	dumpPostings(&b, "workaround", ix.byWorkaround)
	dumpPostings(&b, "fix", ix.byFix)
	dumpPostings(&b, "msr", ix.byMSR)
	fmt.Fprintf(&b, "complex %v\n", Ints(ix.complexSet))
	fmt.Fprintf(&b, "simonly %v\n", Ints(ix.simOnlySet))
	return b.Bytes()
}

func dumpPostings[K comparable](b *bytes.Buffer, family string, m map[K]List) {
	keys := make([]string, 0, len(m))
	byLabel := make(map[string][]int, len(m))
	for k, l := range m {
		label := fmt.Sprint(k)
		keys = append(keys, label)
		byLabel[label] = Ints(l) // %v of a materialized slice: span- and heap-backed dump identically
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s %q %v\n", family, k, byLabel[k])
	}
}
