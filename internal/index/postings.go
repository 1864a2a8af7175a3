package index

import (
	"encoding/binary"
	"fmt"
	"strings"

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
// maps hold it boxed as *Ords, so a builder appends in place and
// storing a list in a map allocates no interface box; both forms are
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

// apOrd appends one ordinal to a list under construction: nil, or the
// *Ords box a previous apOrd returned, grown in place. Builders (Build,
// MergeDelta) only ever grow their own lists; appending to any other
// List (a Span over a file mapping, a finished Ords) panics.
func apOrd(l List, ord int) List {
	p, ok := l.(*Ords)
	if !ok {
		if l != nil {
			panic(fmt.Sprintf("index: append to a finished %T postings list", l))
		}
		p = new(Ords)
	}
	*p = append(*p, ord)
	return p
}

// pushOrd appends one ordinal to a postings map entry, creating it on
// first use.
func pushOrd[K comparable](m map[K]List, k K, ord int) {
	m[k] = apOrd(m[k], ord)
}

// listLen is Len with a nil guard (map lookups of absent keys return a
// nil List).
func listLen(l List) int {
	if l == nil {
		return 0
	}
	return l.Len()
}

// intersectInto merges the sorted []int candidates with a sorted List
// into their intersection. The common Ords case degenerates to the
// two-slice walk; a Span is walked element-wise off its bytes.
func intersectInto(a []int, b List) []int {
	if o, ok := heapInts(b); ok {
		return intersect(a, o)
	}
	nb := b.Len()
	n := len(a)
	if nb < n {
		n = nb
	}
	out := make([]int, 0, n)
	i, j := 0, 0
	for i < len(a) && j < nb {
		bv := b.At(j)
		switch {
		case a[i] < bv:
			i++
		case a[i] > bv:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ListParts is the complete structural state of an index in exported
// form: every postings family behind the List interface, the
// precomputed flag sets and trigger counts, and the unique-
// representative ordinals. It is the one carrier of postings across
// the index/store boundary: BuildParts hands the FormatVersion 2
// encoder heap lists to persist, and a v2 store hands FromLists spans
// over its mapped ords section to reassemble an index from, without
// re-walking any annotation or materializing []int copies.
//
// Ordinals are positions in db.Errata() order, exactly as Build
// produces them, so parts are only meaningful for a database whose
// Errata() order is identical.
type ListParts struct {
	UniqueOrds   List
	ByVendor     map[domain.Vendor]List
	ByDoc        map[string]List
	ByCategory   map[string]List
	ByTriggerCat map[string]List
	ByClass      map[string]List
	ByKey        map[string]List
	ByWorkaround map[domain.WorkaroundCategory]List
	ByFix        map[domain.FixStatus]List
	ByMSR        map[string]List
	ComplexSet   List
	SimOnlySet   List
	// TriggerCount holds per-ordinal trigger-category counts (values,
	// not ordinals), indexed positionally.
	TriggerCount List
}

// FromLists reconstructs an Index over db from List-typed parts —
// typically spans over a mapped FormatVersion 2 file — skipping both
// the annotation walk and the postings materialization; it only lowers
// every title into the table TitleContains scans. Only the cheap
// structural invariant — one trigger count per entry, every unique
// ordinal in range — is re-checked here; the store's open-time
// validation already bounds-checked every ordinal and sorted every
// list. db must not be mutated while the index is in use.
func FromLists(db *domain.Database, p *ListParts) (*Index, error) {
	errata := db.Errata()
	if n := listLen(p.TriggerCount); n != len(errata) {
		return nil, fmt.Errorf("index: parts carry %d trigger counts for %d entries", n, len(errata))
	}
	for i, n := 0, listLen(p.UniqueOrds); i < n; i++ {
		if ord := p.UniqueOrds.At(i); ord < 0 || ord >= len(errata) {
			return nil, fmt.Errorf("index: parts unique ordinal %d out of range [0,%d)", ord, len(errata))
		}
	}
	low := make([]string, len(errata))
	for ord, e := range errata {
		low[ord] = strings.ToLower(e.Title)
	}
	ix := &Index{
		db:           db,
		scheme:       db.Scheme,
		errata:       errata,
		lowTitles:    low,
		uniqueOrds:   p.UniqueOrds,
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
	return ix, nil
}
