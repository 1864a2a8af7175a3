package index

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// MergeDelta builds the index for db incrementally from a previously
// built index instead of walking every entry's annotation again. It is
// the postings-level half of the streaming-ingest path (internal/ingest):
// entries shared by pointer between prev's database and db keep their
// postings (remapped to the new ordinals), entries that disappeared are
// dropped, and only entries absent from prev pay the full per-entry
// annotation walk.
//
// Contract: an *Erratum shared between the two databases must be
// completely unchanged — annotation, flags, disclosure, and cluster key
// included. A delta producer that changes anything about an entry (for
// example a content-addressed dedup label that widened because another
// title with the same hash prefix arrived) must clone the entry (and
// shallow-copy its document)
// instead of mutating it in place; the stale pointer then simply drops
// out of the remap and the clone is indexed as a new entry. Document
// metadata may change between snapshots (insertions shift Order), but
// the relative order of surviving documents — and hence of surviving
// entries — must be preserved, which domain.AssignOrders guarantees: the
// ordinal remap is then monotonic and every remapped postings list stays
// sorted. The byKey map is rebuilt from scratch (cluster keys are the
// one axis that legitimately changes identity across snapshots), and the
// unique-representative list is recomputed from db.Unique().
//
// MergeDelta(nil, db) and a merge against an unrelated previous index
// both degenerate to Build(db) semantics: with no shared entries nothing
// remaps and everything is indexed fresh. The differential fuzz target
// FuzzDeltaMerge (internal/ingest) pins MergeDelta == Build on the union
// for arbitrary ingest sequences.
func MergeDelta(prev *Index, db *domain.Database) *Index {
	if prev == nil {
		return Build(db)
	}
	errata := db.Errata()
	newOrd := make(map[*domain.Erratum]int, len(errata))
	for ord, e := range errata {
		newOrd[e] = ord
	}
	// remap[oldOrd] is the entry's ordinal in the new index, -1 when the
	// entry is gone. Surviving entries keep their relative order, so the
	// defined values are strictly increasing.
	remap := make([]int, len(prev.errata))
	surviving := make(map[*domain.Erratum]bool, len(prev.errata))
	for old, e := range prev.errata {
		if n, ok := newOrd[e]; ok {
			remap[old] = n
			surviving[e] = true
		} else {
			remap[old] = -1
		}
	}

	// Positional trigger counts and lowered titles are written by both
	// the remap below and the scratch index's addEntry walk, so only
	// fresh entries are lowered; prev's counts are read through List so
	// a span-backed previous index works.
	trig := make(Ords, len(errata))
	low := make([]string, len(errata))
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		lowTitles:    low,
		byVendor:     remapPostings(prev.byVendor, remap),
		byDoc:        remapPostings(prev.byDoc, remap),
		byCategory:   remapPostings(prev.byCategory, remap),
		byTriggerCat: remapPostings(prev.byTriggerCat, remap),
		byClass:      remapPostings(prev.byClass, remap),
		byKey:        make(map[string]List),
		byWorkaround: remapPostings(prev.byWorkaround, remap),
		byFix:        remapPostings(prev.byFix, remap),
		byMSR:        remapPostings(prev.byMSR, remap),
		complexSet:   remapList(prev.complexSet, remap),
		simOnlySet:   remapList(prev.simOnlySet, remap),
		triggerCount: trig,
	}
	for old, n := range remap {
		if n >= 0 {
			trig[n] = prev.triggerCount.At(old)
			low[n] = prev.lowTitles[old]
		}
	}

	// Index the new entries into a scratch index, then union its sorted
	// postings into the remapped ones. Both sides are sorted (remap is
	// monotonic; the scratch walk appends in ascending ordinal order), so
	// the result is identical to what a full Build appends.
	vendorOf := make(map[string]domain.Vendor, len(db.Docs))
	for key, d := range db.Docs {
		vendorOf[key] = d.Vendor
	}
	add := &Index{
		scheme:       db.Scheme,
		byVendor:     make(map[domain.Vendor]List),
		byDoc:        make(map[string]List),
		byCategory:   make(map[string]List),
		byTriggerCat: make(map[string]List),
		byClass:      make(map[string]List),
		byWorkaround: make(map[domain.WorkaroundCategory]List),
		byFix:        make(map[domain.FixStatus]List),
		byMSR:        make(map[string]List),
		triggerCount: trig, // written positionally, no union needed
		lowTitles:    low,
	}
	for ord, e := range errata {
		if e.Key != "" { // a clone may carry a widened or shrunk label: rebuilt, never remapped
			pushOrd(ix.byKey, e.Key, ord)
		}
		if surviving[e] {
			continue
		}
		add.addEntry(ord, e, vendorOf)
	}
	unionPostings(ix.byVendor, add.byVendor)
	unionPostings(ix.byDoc, add.byDoc)
	unionPostings(ix.byCategory, add.byCategory)
	unionPostings(ix.byTriggerCat, add.byTriggerCat)
	unionPostings(ix.byClass, add.byClass)
	unionPostings(ix.byWorkaround, add.byWorkaround)
	unionPostings(ix.byFix, add.byFix)
	unionPostings(ix.byMSR, add.byMSR)
	ix.complexSet = Ords(union(toInts(ix.complexSet), toInts(add.complexSet)))
	ix.simOnlySet = Ords(union(toInts(ix.simOnlySet), toInts(add.simOnlySet)))

	for _, e := range db.Unique() {
		if ord, ok := newOrd[e]; ok {
			ix.uniqueOrds = apOrd(ix.uniqueOrds, ord)
		}
	}
	return ix
}

// addEntry walks one entry's indexable attributes, appending its ordinal
// to every postings list except byKey (which Build and MergeDelta manage
// themselves) and writing its trigger count and lowered title at ord.
// Callers append in ascending ordinal order so every list stays sorted.
func (ix *Index) addEntry(ord int, e *domain.Erratum, vendorOf map[string]domain.Vendor) {
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
	classes := make(map[string]bool)
	for _, k := range taxonomy.Kinds {
		for _, it := range e.Ann.Items(k) {
			appendOnce(ix.byCategory, it.Category, ord)
			if k == taxonomy.Trigger {
				appendOnce(ix.byTriggerCat, it.Category, ord)
			}
			if cl := ix.scheme.ClassOf(it.Category); cl != "" && !classes[cl] {
				classes[cl] = true
				pushOrd(ix.byClass, cl, ord)
			}
		}
	}
	ix.triggerCount.(Ords)[ord] = len(e.Ann.Categories(taxonomy.Trigger, ix.scheme))
	ix.lowTitles[ord] = strings.ToLower(e.Title)
}

// remapPostings rewrites every list of a postings map through remap,
// dropping removed ordinals and empty lists (Build never stores empty
// lists, and equality with Build is the whole point). The input lists
// may be spans over a mapped file; the output is always heap-resident.
func remapPostings[K comparable](m map[K]List, remap []int) map[K]List {
	out := make(map[K]List, len(m))
	for k, l := range m {
		if r := remapList(l, remap); len(r) > 0 {
			out[k] = r
		}
	}
	return out
}

func remapList(l List, remap []int) Ords {
	var out Ords
	for i, n := 0, listLen(l); i < n; i++ {
		if v := remap[l.At(i)]; v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// unionPostings merges the sorted add lists into dst in place. Both
// sides are heap-resident here (remapPostings materializes), so the
// Ords round-trips are alias-only.
func unionPostings[K comparable](dst, add map[K]List) {
	for k, l := range add {
		dst[k] = Ords(union(toInts(dst[k]), toInts(l)))
	}
}

// DebugDump renders the complete index state — entry identities with
// their trigger counts and lowered titles, every postings family in
// sorted key order, flags and the unique-representative ordinals — as
// deterministic text. Two indexes over equal databases dump identically
// iff they are structurally equal, which is what the delta-merge
// differential tests and the FuzzDeltaMerge target compare.
func (ix *Index) DebugDump() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "entries %d\n", len(ix.errata))
	for ord, e := range ix.errata {
		fmt.Fprintf(&b, "e %d %s key=%q trig=%d low=%q\n", ord, e.FullID(), e.Key, ix.triggerCount.At(ord), ix.lowTitles[ord])
	}
	fmt.Fprintf(&b, "unique %v\n", toInts(ix.uniqueOrds))
	dumpPostings(&b, "vendor", ix.byVendor)
	dumpPostings(&b, "doc", ix.byDoc)
	dumpPostings(&b, "category", ix.byCategory)
	dumpPostings(&b, "trigger", ix.byTriggerCat)
	dumpPostings(&b, "class", ix.byClass)
	dumpPostings(&b, "key", ix.byKey)
	dumpPostings(&b, "workaround", ix.byWorkaround)
	dumpPostings(&b, "fix", ix.byFix)
	dumpPostings(&b, "msr", ix.byMSR)
	fmt.Fprintf(&b, "complex %v\n", toInts(ix.complexSet))
	fmt.Fprintf(&b, "simonly %v\n", toInts(ix.simOnlySet))
	return b.Bytes()
}

func dumpPostings[K comparable](b *bytes.Buffer, family string, m map[K]List) {
	keys := make([]string, 0, len(m))
	byLabel := make(map[string][]int, len(m))
	for k, l := range m {
		label := fmt.Sprint(k)
		keys = append(keys, label)
		byLabel[label] = toInts(l) // %v of a materialized slice: span- and heap-backed dump identically
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s %q %v\n", family, k, byLabel[k])
	}
}
