package index

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
)

// TestInstrumentedQueries checks that intersections and residual
// fallbacks are attributed to the registry and that instrumentation
// does not change query results.
func TestInstrumentedQueries(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	plain := Build(gt.DB)
	ix := Build(gt.DB)
	reg := obs.NewRegistry()
	ix.Instrument(reg)

	inters := reg.Counter("rememberr_index_intersections_total", "")
	resid := reg.Counter("rememberr_index_residual_filters_total", "")

	// Single postings list: no intersection, no residual.
	if got, want := ix.Query().Vendor(0).Count(), plain.Query().Vendor(0).Count(); got != want {
		t.Fatalf("instrumented count %d != plain %d", got, want)
	}
	if inters.Value() != 0 || resid.Value() != 0 {
		t.Fatalf("single-list query counted %d intersections, %d residuals", inters.Value(), resid.Value())
	}

	// Two postings lists intersect exactly once.
	ix.Query().Vendor(0).WithCategory("Eff_HNG_hng").Count()
	if inters.Value() != 1 {
		t.Fatalf("intersections = %d, want 1", inters.Value())
	}

	// A bare title filter is a residual predicate over every entry,
	// whether or not anything matches.
	n := int64(ix.Size())
	ix.Query().TitleContains("the").Count()
	if resid.Value() != n {
		t.Fatalf("residuals = %d, want %d (every entry scanned)", resid.Value(), n)
	}
	ix.Query().TitleContains("no title holds this").Count()
	if resid.Value() != 2*n {
		t.Fatalf("residuals = %d after a missing title, want %d", resid.Value(), 2*n)
	}

	// Behind a postings list it examines only that list's candidates.
	ix.Query().Vendor(0).TitleContains("the").Count()
	if want := 2*n + int64(len(ix.Query().Vendor(0).All())); resid.Value() != want {
		t.Fatalf("residuals = %d after a vendor-scoped title, want %d", resid.Value(), want)
	}
}
