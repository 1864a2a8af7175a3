package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
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
// The cost is O(batch) apart from integer work over the survivors and
// no hashing: the remap compares each document's entries with its
// previous ordinal block (byDoc) by pointer, and every postings family
// — byKey included — is merged as two sorted key runs, the previous
// table's and the fresh entries'. A previous list that gains no fresh
// ordinal and ends below the first ordinal the remap moves is shared as
// it is (span or heap); every other one is remapped into one backing
// array per family. The unique-representative list is carried over with
// only the clusters that lost or gained an entry recomputed, and the
// unique ranks are rebuilt from it.
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
	// Every ordinal below moved survives in place; a list of prev's that
	// ends below it remaps onto itself.
	moved := len(remap)
	for old, o := range remap {
		if o != old {
			moved = old
			break
		}
	}

	// Index the fresh entries in a walk of their own first: it appends
	// in ascending ordinal order, so its lists are sorted, and each
	// merged list below is one pass over a remapped previous list
	// (sorted, since remap is monotonic) and the walk's list — exactly
	// what a full Build appends. Positional trigger counts, lowered
	// titles and their signatures go straight into the merged tables:
	// the walk and the lowering write the fresh rows, the survivors'
	// rows are copied (the unmoved prefix in one copy).
	trig := make(Ords, n)
	low := make([]string, n)
	sigs := make([]bigrams, n)
	w := newWalk(db, trig)
	for _, ord := range fresh {
		w.addEntry(ord, errata[ord])
		low[ord], sigs[ord] = lowerTitle(errata[ord].Title)
	}
	copy(low, prev.lowTitles[:moved])
	copy(sigs, prev.titleSigs[:moved])
	if prevTrig, ok := heapInts(prev.triggerCount); ok {
		copy(trig, prevTrig[:moved])
	} else {
		for old := range moved {
			trig[old] = prev.triggerCount.At(old)
		}
	}
	for old := moved; old < len(remap); old++ {
		if o := remap[old]; o >= 0 {
			trig[o] = prev.triggerCount.At(old)
			low[o], sigs[o] = prev.lowTitles[old], prev.titleSigs[old]
		}
	}
	add := &Index{}
	w.into(add)
	u := &uniqueDelta{errata: errata, docs: docs, starts: starts, drop: make([]bool, len(prev.errata))}
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		lowTitles:    low,
		titleSigs:    sigs,
		byVendor:     mergeTable(&prev.byVendor, &add.byVendor, remap, moved, nil),
		byDoc:        mergeTable(&prev.byDoc, &add.byDoc, remap, moved, nil),
		byCategory:   mergeTable(&prev.byCategory, &add.byCategory, remap, moved, nil),
		byTriggerCat: mergeTable(&prev.byTriggerCat, &add.byTriggerCat, remap, moved, nil),
		byClass:      mergeTable(&prev.byClass, &add.byClass, remap, moved, nil),
		byKey:        mergeTable(&prev.byKey, &add.byKey, remap, moved, u.recluster),
		byWorkaround: mergeTable(&prev.byWorkaround, &add.byWorkaround, remap, moved, nil),
		byFix:        mergeTable(&prev.byFix, &add.byFix, remap, moved, nil),
		byMSR:        mergeTable(&prev.byMSR, &add.byMSR, remap, moved, nil),
		complexSet:   mergeList(prev.complexSet, add.complexSet, remap, moved),
		simOnlySet:   mergeList(prev.simOnlySet, add.simOnlySet, remap, moved),
		triggerCount: trig,
	}

	ix.uniqueOrds = u.merge(prev, remap, fresh)
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
	old := prev.byDoc.Get(d.Key)
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

// uniqueDelta carries prev's unique-representative list over to the
// merged index. A cluster's representative can only change when the
// cluster lost or gained an entry (survivors keep their Seq and their
// documents' relative order), and those are the cluster keys whose
// byKey list the merge rewrote with a fresh ordinal or without a
// removed one: mergeTable hands each of them to recluster, which drops
// the old representatives and recomputes the cluster's by
// db.Unique()'s rule. Fresh keyless entries are their own
// representatives. merge sorts the recomputed ones into db.Unique()
// order (DocKey, then Seq) and merges them with the remapped
// survivors, which are already in that order.
type uniqueDelta struct {
	errata []*domain.Erratum // the merged index's
	docs   []*domain.Document
	starts []int
	drop   []bool // prev's ordinals in a recomputed cluster
	reps   []int  // recomputed representatives
}

// recluster marks old's members dropped and appends the
// representatives of merged's clusters.
func (u *uniqueDelta) recluster(old, merged List) {
	for i, m := 0, listLen(old); i < m; i++ {
		u.drop[old.At(i)] = true
	}
	u.reps = clusterReps(u.errata, merged, u.docs, u.starts, u.reps)
}

// merge returns the merged index's unique-representative list.
func (u *uniqueDelta) merge(prev *Index, remap, fresh []int) List {
	reps := u.reps
	for _, ord := range fresh {
		if u.errata[ord].Key == "" {
			reps = append(reps, ord)
		}
	}
	less := func(a, b *domain.Erratum) bool {
		if a.DocKey != b.DocKey {
			return a.DocKey < b.DocKey
		}
		return a.Seq < b.Seq
	}
	sort.Slice(reps, func(i, j int) bool { return less(u.errata[reps[i]], u.errata[reps[j]]) })

	out := make(Ords, 0, listLen(prev.uniqueOrds)+len(reps))
	r := 0
	for i, m := 0, listLen(prev.uniqueOrds); i < m; i++ {
		old := prev.uniqueOrds.At(i)
		o := remap[old]
		if o < 0 || u.drop[old] {
			continue
		}
		for r < len(reps) && less(u.errata[reps[r]], u.errata[o]) {
			out = append(out, reps[r])
			r++
		}
		out = append(out, o)
	}
	return append(out, reps[r:]...)
}

// clusterReps appends the representatives of every cluster among the
// members l of one key to reps, by db.Unique()'s rule: clusters are
// (DocKeyVendor, key), and each keeps its member of lowest document
// Order, then lowest Seq, walking members in document order so the
// first of equals wins.
func clusterReps(errata []*domain.Erratum, l List, docs []*domain.Document, starts, reps []int) []int {
	type best struct {
		vendor     string
		ord, order int
	}
	bs := make([]best, 0, 2) // one per vendor
	for i, m := 0, listLen(l); i < m; i++ {
		ord := l.At(i)
		e := errata[ord]
		order := docs[sort.SearchInts(starts, ord+1)-1].Order
		v := e.DocKeyVendor()
		j := 0
		for j < len(bs) && bs[j].vendor != v {
			j++
		}
		switch {
		case j == len(bs):
			bs = append(bs, best{v, ord, order})
		case order < bs[j].order || (order == bs[j].order && e.Seq < errata[bs[j].ord].Seq):
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
func (w *walk) addEntry(ord int, e *domain.Erratum) {
	if e.Key != "" {
		w.byKey.add(e.Key, ord)
	}
	if v, ok := w.vendorOf[e.DocKey]; ok {
		w.byVendor.add(v, ord)
	}
	w.byDoc.add(e.DocKey, ord)
	w.byWorkaround.add(e.WorkaroundCat, ord)
	w.byFix.add(e.Fix, ord)
	for _, m := range e.Ann.MSRs {
		w.byMSR.add(m, ord)
	}
	if e.Ann.ComplexConditions {
		w.complexSet = append(w.complexSet, ord)
	}
	if e.Ann.SimulationOnly {
		w.simOnlySet = append(w.simOnlySet, ord)
	}
	// The trigger count is the number of distinct trigger categories,
	// which is how many of them add appends.
	triggers := 0
	for _, k := range domain.Kinds {
		for _, it := range e.Ann.Items(k) {
			w.byCategory.add(it.Category, ord)
			if k == domain.Trigger && w.byTriggerCat.add(it.Category, ord) {
				triggers++
			}
			if cl := w.scheme.ClassOf(it.Category); cl != "" {
				w.byClass.add(cl, ord)
			}
		}
	}
	w.trig[ord] = triggers
}

// mergeTable builds one postings family of the merged index from prev's
// table and the fresh entries' table add, as two sorted key runs. A key
// of prev's alone whose list ends below moved keeps that list as it is;
// every other key of prev's has its list rewritten through remap,
// removed ordinals dropped, and merged with add's list of the same key.
// A key only add holds takes add's list over. Empty lists are dropped
// (Build never stores one, and equality with Build is the whole point),
// and a family nothing touched is prev's table itself. The rewritten
// lists share one backing array (capped per list, so nothing appends
// into a neighbour) and one array of *Ords boxes. prev's lists may be
// spans over a mapped file. A non-nil changed is called with the
// previous and the merged list (either nil when absent) of every key
// that gained a fresh ordinal or lost a removed one.
func mergeTable[K cmp.Ordered](prev, add *Table[K], remap []int, moved int, changed func(old, merged List)) Table[K] {
	// Size the rewrite: every list that is not kept and every fresh one.
	total, rewrite := 0, 0
	for j, i := 0, 0; i < len(prev.Keys); i++ {
		for j < len(add.Keys) && add.Keys[j] < prev.Keys[i] {
			j++
		}
		if j < len(add.Keys) && add.Keys[j] == prev.Keys[i] || !keeps(prev.Lists[i], moved) {
			total += listLen(prev.Lists[i])
			rewrite++
		}
	}
	if rewrite == 0 && len(add.Keys) == 0 {
		return *prev
	}
	for _, l := range add.Lists {
		total += listLen(l)
	}
	out := Table[K]{
		Keys:  make([]K, 0, len(prev.Keys)+len(add.Keys)),
		Lists: make([]List, 0, len(prev.Keys)+len(add.Keys)),
	}
	arena := make([]int, 0, total)
	boxes := make([]Ords, 0, rewrite)
	put := func(k K, l List) {
		out.Keys = append(out.Keys, k)
		out.Lists = append(out.Lists, l)
	}
	i, j := 0, 0
	for i < len(prev.Keys) || j < len(add.Keys) {
		if i == len(prev.Keys) || j < len(add.Keys) && add.Keys[j] < prev.Keys[i] {
			put(add.Keys[j], add.Lists[j])
			if changed != nil {
				changed(nil, add.Lists[j])
			}
			j++
			continue
		}
		k, l := prev.Keys[i], prev.Lists[i]
		i++
		var fresh []int
		if j < len(add.Keys) && add.Keys[j] == k {
			fresh = Ints(add.Lists[j])
			j++
		} else if keeps(l, moved) {
			put(k, l)
			continue
		}
		start := len(arena)
		arena = remapInto(arena, l, fresh, remap, moved)
		var merged List
		if len(arena) > start {
			boxes = append(boxes, arena[start:len(arena):len(arena)])
			merged = &boxes[len(boxes)-1]
			put(k, merged)
		}
		if changed != nil && (fresh != nil || len(arena)-start < listLen(l)) {
			changed(l, merged)
		}
	}
	return out
}

// keeps reports whether the non-empty list l ends below moved, so the
// remap maps it onto itself.
func keeps(l List, moved int) bool {
	n := listLen(l)
	return n > 0 && l.At(n-1) < moved
}

// mergeList is mergeTable for one list.
func mergeList(l, add List, remap []int, moved int) List {
	if add == nil && keeps(l, moved) {
		return l
	}
	out := Ords(remapInto(make([]int, 0, listLen(l)+listLen(add)), l, Ints(add), remap, moved))
	return &out
}

// remapInto appends to dst the sorted union of l's surviving ordinals,
// remapped, and the sorted fresh ordinals (the two never share one).
// Ordinals below moved map onto themselves and every fresh one lies
// above them, so a heap list's prefix below moved is copied as it is;
// the rest of a heap list is read as []int and a span as its u32
// bytes, so the loop makes no interface call per element.
func remapInto(dst []int, l List, fresh, remap []int, moved int) []int {
	j := 0
	put := func(old int) {
		v := remap[old]
		if v < 0 {
			return
		}
		for j < len(fresh) && fresh[j] < v {
			dst = append(dst, fresh[j])
			j++
		}
		dst = append(dst, v)
	}
	if s, ok := l.(Span); ok {
		for i := 0; i < len(s.b); i += 4 {
			put(int(binary.LittleEndian.Uint32(s.b[i:])))
		}
	} else {
		ords := Ints(l)
		p := sort.SearchInts(ords, moved)
		dst = append(dst, ords[:p]...)
		for _, old := range ords[p:] {
			put(old)
		}
	}
	return append(dst, fresh[j:]...)
}

// DebugDump renders the complete index state — entry identities with
// their trigger counts, unique ranks, lowered titles and title
// signatures, every postings family in
// table (ascending key) order, flags and the unique-representative ordinals — as
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
	dumpTable(&b, "vendor", &ix.byVendor)
	dumpTable(&b, "doc", &ix.byDoc)
	dumpTable(&b, "category", &ix.byCategory)
	dumpTable(&b, "trigger", &ix.byTriggerCat)
	dumpTable(&b, "class", &ix.byClass)
	dumpTable(&b, "key", &ix.byKey)
	dumpTable(&b, "workaround", &ix.byWorkaround)
	dumpTable(&b, "fix", &ix.byFix)
	dumpTable(&b, "msr", &ix.byMSR)
	fmt.Fprintf(&b, "complex %v\n", Ints(ix.complexSet))
	fmt.Fprintf(&b, "simonly %v\n", Ints(ix.simOnlySet))
	return b.Bytes()
}

func dumpTable[K cmp.Ordered](b *bytes.Buffer, family string, t *Table[K]) {
	for i, k := range t.Keys {
		// %v of a materialized slice: span- and heap-backed dump identically.
		fmt.Fprintf(b, "%s %q %v\n", family, fmt.Sprint(k), Ints(t.Lists[i]))
	}
}
