package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"testing"

	"repro/internal/corpus"
	"repro/pkg/domain"
)

// spanOf encodes a heap list as little-endian u32 bytes and wraps it as
// a Span — the same representation the FormatVersion 2 ords section
// uses, without needing a store file.
func spanOf(t *testing.T, l List) List {
	t.Helper()
	if l == nil {
		return nil
	}
	b := make([]byte, 4*l.Len())
	for i := 0; i < l.Len(); i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(l.At(i)))
	}
	return NewSpan(b)
}

func spanTable[K cmp.Ordered](t *testing.T, tb Table[K]) Table[K] {
	t.Helper()
	out := Table[K]{Keys: tb.Keys, Lists: make([]List, len(tb.Lists))}
	for i, l := range tb.Lists {
		out.Lists[i] = spanOf(t, l)
	}
	return out
}

// TestSpanIndexEquivalence proves the disk-resident postings iterator:
// an index whose every postings list is a Span over u32 bytes answers
// all query shapes and dumps identically to the heap-built index. This
// is the in-package oracle for the mmap-backed store handing the index
// spans over its mapped ords section.
func TestSpanIndexEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 19} {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		built := Build(gt.DB)
		lp := &ListParts{
			UniqueOrds:   spanOf(t, built.uniqueOrds),
			ByVendor:     spanTable(t, built.byVendor),
			ByDoc:        spanTable(t, built.byDoc),
			ByCategory:   spanTable(t, built.byCategory),
			ByTriggerCat: spanTable(t, built.byTriggerCat),
			ByClass:      spanTable(t, built.byClass),
			ByKey:        spanTable(t, built.byKey),
			ByWorkaround: spanTable(t, built.byWorkaround),
			ByFix:        spanTable(t, built.byFix),
			ByMSR:        spanTable(t, built.byMSR),
			ComplexSet:   spanOf(t, built.complexSet),
			SimOnlySet:   spanOf(t, built.simOnlySet),
			TriggerCount: spanOf(t, built.triggerCount),
		}
		spanned, err := FromLists(gt.DB, lp)
		if err != nil {
			t.Fatalf("seed %d: FromLists: %v", seed, err)
		}
		if !bytes.Equal(built.DebugDump(), spanned.DebugDump()) {
			t.Fatalf("seed %d: span-backed index dumps differently from heap-built", seed)
		}
		for _, q := range []struct {
			name string
			run  func(ix *Index) []*domain.Erratum
		}{
			{"all", func(ix *Index) []*domain.Erratum { return ix.Query().All() }},
			{"unique", func(ix *Index) []*domain.Erratum { return ix.Query().Unique() }},
			{"complex", func(ix *Index) []*domain.Erratum { return ix.Query().Complex().All() }},
			{"vendor", func(ix *Index) []*domain.Erratum { return ix.Query().Vendor(domain.Intel).All() }},
			{"min-triggers", func(ix *Index) []*domain.Erratum { return ix.Query().MinTriggers(2).All() }},
			{"compound", func(ix *Index) []*domain.Erratum {
				return ix.Query().Vendor(domain.Intel).Complex().MinTriggers(1).Unique()
			}},
		} {
			a, b := q.run(built), q.run(spanned)
			if len(a) != len(b) {
				t.Fatalf("seed %d: query %s: heap %d entries, span %d", seed, q.name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: query %s: entry %d differs (%s vs %s)",
						seed, q.name, i, a[i].FullID(), b[i].FullID())
				}
			}
		}
		// A delta merge from a span-backed previous index must equal one
		// from the heap-built index (and both equal a fresh Build).
		fromSpans, fromHeap := merged(t, spanned, gt.DB), merged(t, built, gt.DB)
		if !bytes.Equal(fromSpans.DebugDump(), fromHeap.DebugDump()) {
			t.Fatalf("seed %d: MergeDelta from span-backed prev diverges", seed)
		}
	}
}

// TestFromListsRejects proves the structural validation on untrusted
// parts: a short TriggerCount and an out-of-range unique ordinal.
func TestFromListsRejects(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	built := Build(gt.DB)
	n := len(gt.DB.Errata())

	short := &ListParts{
		UniqueOrds:   built.uniqueOrds,
		TriggerCount: Ords(Ints(built.triggerCount)[:n-1]),
	}
	if _, err := FromLists(gt.DB, short); err == nil {
		t.Fatal("FromLists accepted a short TriggerCount")
	}

	outOfRange := &ListParts{
		UniqueOrds:   spanOf(t, Ords(append(Ints(built.uniqueOrds), n))),
		TriggerCount: built.triggerCount,
	}
	if _, err := FromLists(gt.DB, outOfRange); err == nil {
		t.Fatal("FromLists accepted an out-of-range ordinal")
	}
}
