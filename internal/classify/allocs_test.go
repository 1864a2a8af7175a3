//go:build !race

// The race detector drops sync.Pool entries at random, so allocation
// counts hold only without it.

package classify

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// TestClassifyAllocs gates a memo-warm Classify, the steady state of a
// long-running ingester, over the seed-1 errata. A report holds its
// decisions in one dense vector, repeated workaround and status texts
// come from the field memo, clauses are cut without split slices and
// ASCII clauses are scanned without a folded copy, so a report costs
// about eleven allocations and 3 KB.
func TestClassifyAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 12, 3500
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	errata := gt.DB.Errata()
	eng := NewEngine()
	for _, e := range errata {
		eng.Classify(e)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range errata {
		eng.Classify(e)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(errata))
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("memo-warm Classify: %.1f allocs/op, %.0f B/op", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("memo-warm Classify costs %.1f allocs/op and %.0f B/op, want at most %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
