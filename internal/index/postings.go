package index

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/pkg/domain"
)

// List is a read-only sorted postings list of erratum ordinals. Two
// implementations exist: Ords, a plain heap slice produced by
// Build/MergeDelta, and Span, a view over little-endian u32 bytes —
// typically a sub-slice of a FormatVersion 2 file mapping, so a
// span-backed index answers compound-filter queries by walking postings
// straight off the mapped file without ever copying them into the heap.
//
// Lists are immutable once published; every accessor is safe for
// concurrent readers.
type List interface {
	Len() int
	At(i int) int
}

// Ords is the heap-resident List: a sorted slice of ordinals. Postings
// tables hold it boxed as *Ords, so a builder appends in place and
// storing a list in a table allocates no interface box; both forms are
// Lists.
type Ords []int

func (o Ords) Len() int     { return len(o) }
func (o Ords) At(i int) int { return o[i] }

// Span is a disk-resident List: little-endian u32 ordinals viewed in
// place, with no per-element heap state. Reading an element after the
// backing region is unmapped is undefined; the serving layer's region
// refcount (internal/store.Region) guarantees that never happens to an
// in-flight request.
type Span struct{ b []byte }

// NewSpan wraps raw little-endian u32 bytes as a postings list. The
// byte length must be a multiple of 4; the caller (the store's bounds
// validation) guarantees every element is a valid ordinal.
func NewSpan(b []byte) Span {
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("index: span of %d bytes is not u32-aligned", len(b)))
	}
	return Span{b: b}
}

func (s Span) Len() int     { return len(s.b) / 4 }
func (s Span) At(i int) int { return int(binary.LittleEndian.Uint32(s.b[i*4:])) }

// heapInts returns the ordinals of a heap-resident list (Ords or *Ords)
// without copying; ok is false for any other List.
func heapInts(l List) (ords []int, ok bool) {
	switch v := l.(type) {
	case Ords:
		return v, true
	case *Ords:
		return *v, true
	}
	return nil, false
}

// Ints materializes a List as []int, aliasing the underlying slice
// when the list already lives in the heap (the caller must then treat
// it as read-only).
func Ints(l List) []int {
	if l == nil {
		return nil
	}
	if o, ok := heapInts(l); ok {
		return o
	}
	out := make([]int, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out
}

// listLen is Len with a nil guard (Table lookups of absent keys return
// a nil List).
func listLen(l List) int {
	if l == nil {
		return 0
	}
	return l.Len()
}

// cursor walks one postings list forward for Query.each: a heap
// slice, or a Span's u32 bytes read in place, so the intersection makes
// no interface call per element.
type cursor struct {
	ints []int
	span []byte
	i, n int
}

// cursorOf opens a cursor at the start of l. A List that is neither
// heap-resident nor a Span is materialized once.
func cursorOf(l List) cursor {
	if s, ok := l.(Span); ok {
		return cursor{span: s.b, n: s.Len()}
	}
	o := Ints(l)
	return cursor{ints: o, n: len(o)}
}

func (c *cursor) at(i int) int {
	if c.span != nil {
		return int(binary.LittleEndian.Uint32(c.span[4*i:]))
	}
	return c.ints[i]
}

// Table is one postings family: Keys in strictly ascending order and
// Lists[i] the postings list of Keys[i]. Build, MergeDelta and the v2
// file all hold a family in this sorted form, so a merge is two sorted
// runs, the encoder writes the table in order and the store hands its
// file order over as it is; a lookup is a binary search over Keys.
type Table[K cmp.Ordered] struct {
	Keys  []K
	Lists []List
}

// Get returns the postings list of key, or nil when no entry bears it.
// The search halves the candidate range without a data-dependent
// branch (the comparison's result only moves base), so it pays no
// branch mispredictions beyond the string comparisons' own.
func (t *Table[K]) Get(key K) List {
	keys := t.Keys
	if len(keys) == 0 {
		return nil
	}
	base := 0
	for n := len(keys); n > 1; {
		half := n / 2
		if keys[base+half] <= key {
			base += half
		}
		n -= half
	}
	if keys[base] == key {
		return t.Lists[base]
	}
	return nil
}

// check reports an error unless t's keys are strictly ascending and
// each has one list.
func (t *Table[K]) check(family string) error {
	if len(t.Keys) != len(t.Lists) {
		return fmt.Errorf("index: %s table has %d keys for %d lists", family, len(t.Keys), len(t.Lists))
	}
	for i := 1; i < len(t.Keys); i++ {
		if t.Keys[i-1] >= t.Keys[i] {
			return fmt.Errorf("index: %s table keys not strictly ascending at %d", family, i)
		}
	}
	return nil
}

// ListParts is the complete structural state of an index in exported
// form: every postings family as a sorted Table of Lists, the
// precomputed flag sets and trigger counts, and the unique-
// representative ordinals. It is the one carrier of postings across
// the index/store boundary: BuildParts hands the FormatVersion 2
// encoder heap lists to persist, and a v2 store hands FromLists spans
// over its mapped ords section, in file order, to reassemble an index
// from, without re-walking any annotation or materializing []int
// copies.
//
// Ordinals are positions in db.Errata() order, exactly as Build
// produces them, so parts are only meaningful for a database whose
// Errata() order is identical.
type ListParts struct {
	UniqueOrds   List
	ByVendor     Table[domain.Vendor]
	ByDoc        Table[string]
	ByCategory   Table[string]
	ByTriggerCat Table[string]
	ByClass      Table[string]
	ByKey        Table[string]
	ByWorkaround Table[domain.WorkaroundCategory]
	ByFix        Table[domain.FixStatus]
	ByMSR        Table[string]
	ComplexSet   List
	SimOnlySet   List
	// TriggerCount holds per-ordinal trigger-category counts (values,
	// not ordinals), indexed positionally.
	TriggerCount List
}

// FromLists reconstructs an Index over db from List-typed parts —
// typically spans over a mapped FormatVersion 2 file — skipping both
// the annotation walk and the postings materialization; it only fills
// the per-ordinal tables: lowered titles with their signatures, and
// unique ranks. Only the cheap structural invariant — one trigger
// count per entry, every unique ordinal in range and listed once, every
// table's keys strictly ascending — is re-checked here; the store's
// open-time validation already bounds-checked every ordinal and sorted
// every list. db must not be mutated while the index is in use.
func FromLists(db *domain.Database, p *ListParts) (*Index, error) {
	errata := db.Errata()
	if n := listLen(p.TriggerCount); n != len(errata) {
		return nil, fmt.Errorf("index: parts carry %d trigger counts for %d entries", n, len(errata))
	}
	rank, err := ranks(p.UniqueOrds, len(errata))
	if err != nil {
		return nil, err
	}
	if err := errors.Join(
		p.ByVendor.check("vendor"), p.ByDoc.check("document"), p.ByCategory.check("category"),
		p.ByTriggerCat.check("trigger-category"), p.ByClass.check("class"), p.ByKey.check("key"),
		p.ByWorkaround.check("workaround"), p.ByFix.check("fix"), p.ByMSR.check("MSR"),
	); err != nil {
		return nil, err
	}
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		uniqueOrds:   p.UniqueOrds,
		uniqueRank:   rank,
		byVendor:     p.ByVendor,
		byDoc:        p.ByDoc,
		byCategory:   p.ByCategory,
		byTriggerCat: p.ByTriggerCat,
		byClass:      p.ByClass,
		byKey:        p.ByKey,
		byWorkaround: p.ByWorkaround,
		byFix:        p.ByFix,
		byMSR:        p.ByMSR,
		complexSet:   p.ComplexSet,
		simOnlySet:   p.SimOnlySet,
		triggerCount: p.TriggerCount,
	}
	ix.lowerTitles()
	return ix, nil
}
