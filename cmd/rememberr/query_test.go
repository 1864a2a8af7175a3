package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/queryref"
	"repro/internal/store"
)

// TestQueryCommandMatchesReference runs `rememberr query` over a saved
// seed-1 store with README's example flags, a bare switch and a zero
// -min-triggers, and holds each printed count to the reference scan of
// the same filters written as /v1/errata parameters.
func TestQueryCommandMatchesReference(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed1.v2")
	if err := store.SaveFormat(gt.DB, path, "v2"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags  []string
		params string
	}{
		{[]string{"-vendor", "Intel", "-class", "Trg_POW", "-min-triggers", "2"}, "vendor=Intel&class=Trg_POW&min_triggers=2"},
		{[]string{"-complex"}, "complex=true"},
		{[]string{"-min-triggers", "0", "-vendor", "amd"}, "vendor=AMD"},
		{[]string{"-category", "Eff_HNG_hng", "-category", "Trg_POW_pwc"}, "category=Eff_HNG_hng&category=Trg_POW_pwc"},
	} {
		var out bytes.Buffer
		if err := cmdQuery(&out, append(tc.flags, "-db", path)); err != nil {
			t.Fatalf("query %v: %v", tc.flags, err)
		}
		ref, err := queryref.Parse(tc.params)
		if err != nil {
			t.Fatal(err)
		}
		n := len(ref.Match(gt.DB, true))
		if n == 0 {
			t.Fatalf("?%s matches nothing; the check would be vacuous", tc.params)
		}
		if want := fmt.Sprintf("%d unique errata match\n", n); out.String() != want {
			t.Errorf("query %v printed %q, want %q", tc.flags, out.String(), want)
		}
	}
}
