//go:build !race

// The race detector drops sync.Pool entries at random, so exact
// allocation counts hold only without it.

package serve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/pkg/domain"
)

// TestSwapDeltaAllocs gates the cost of a POST's SwapDelta by its
// batch, not by the corpus. Onto the mapped seed-1 store, a SwapDelta
// of the served database itself (nothing fresh) and then of each
// revised document of seed 2 may allocate at most swapAllocsPerErratum
// times its fresh entries — those the new database does not share with
// the served one: the document's errata and any relabelled clones —
// plus swapAllocsFixed. The fixed part is the per-ordinal tables of
// the snapshot (25 allocations measured on this corpus when nothing is
// fresh: every postings table is shared); anything that builds
// per-entry state for the whole corpus, such as a map keyed by entry,
// one postings slice per cluster key or a db.Unique() pass, costs
// thousands of allocations here and fails. The nothing-fresh swap may
// also allocate at most swapBytesPerEntry bytes per served entry (141
// measured): the per-ordinal tables fit, a copy of the postings does
// not.
func TestSwapDeltaAllocs(t *testing.T) {
	const swapAllocsPerErratum, swapAllocsFixed, swapBytesPerEntry = 25, 50, 160
	srv, ing := mappedIngestServer(t)
	check := func(what string, db *domain.Database) {
		t.Helper()
		served := make(map[*domain.Erratum]bool)
		for _, e := range srv.snap.Load().ix.Errata() {
			served[e] = true
		}
		batch := 0
		for _, e := range db.Errata() {
			if !served[e] {
				batch++
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.SwapDelta(db)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		if limit := uint64(swapAllocsPerErratum*batch + swapAllocsFixed); allocs > limit {
			t.Errorf("%s: SwapDelta of %d fresh errata allocated %d times, want <= %d (%d per erratum + %d)",
				what, batch, allocs, limit, swapAllocsPerErratum, swapAllocsFixed)
		}
		entries := len(db.Errata())
		if bytes := after.TotalAlloc - before.TotalAlloc; batch == 0 && bytes > uint64(swapBytesPerEntry*entries) {
			t.Errorf("%s: SwapDelta with nothing fresh allocated %d bytes, want <= %d (%d per entry)",
				what, bytes, swapBytesPerEntry*entries, swapBytesPerEntry)
		}
	}
	check("served database", srv.snap.Load().db)
	for i, text := range ingestTexts(t, 2) {
		res, err := ing.Apply([]string{text})
		if err != nil {
			t.Fatalf("document %d: Apply: %v", i, err)
		}
		if !res.Changed {
			t.Fatalf("document %d: Apply skipped a revised document", i)
		}
		check(fmt.Sprintf("document %d", i), res.DB)
	}
}
