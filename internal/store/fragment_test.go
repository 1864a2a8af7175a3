package store

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/corpus"
)

// TestFragmentsMatchMarshal is the byte-identity contract behind the
// zero-allocation serve path: every precomputed fragment must equal
// json.Marshal of the corresponding DTO, for every erratum and key.
func TestFragmentsMatchMarshal(t *testing.T) {
	gt, err := corpus.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	db := gt.DB
	frags, err := BuildFragments(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range db.Errata() {
		wantD, err := json.Marshal(DetailOf(db, e))
		if err != nil {
			t.Fatal(err)
		}
		if got := frags.Detail(e); !bytes.Equal(got, wantD) {
			t.Fatalf("%s#%d: detail fragment differs:\n got %s\nwant %s", e.DocKey, e.Seq, got, wantD)
		}
		wantS, err := json.Marshal(Summarize(db, e))
		if err != nil {
			t.Fatal(err)
		}
		if got := frags.Summary(e); !bytes.Equal(got, wantS) {
			t.Fatalf("%s#%d: summary fragment differs:\n got %s\nwant %s", e.DocKey, e.Seq, got, wantS)
		}
		if e.Key != "" {
			wantK, _ := json.Marshal(e.Key)
			if got := frags.KeyJSON(e.Key); !bytes.Equal(got, wantK) {
				t.Fatalf("key %q: %s != %s", e.Key, got, wantK)
			}
		}
	}
}

// TestFragmentsNilSafety proves a nil or empty *Fragments always answers
// nil, so a store without a fragment section is safe to query.
func TestFragmentsNilSafety(t *testing.T) {
	var f *Fragments
	db := sampleDB(t)
	e := db.Errata()[0]
	if f.Detail(e) != nil || f.Summary(e) != nil || f.KeyJSON("k") != nil {
		t.Fatal("nil Fragments answered non-nil")
	}
	var empty Fragments
	if empty.Detail(e) != nil || empty.Summary(e) != nil || empty.KeyJSON("k") != nil {
		t.Fatal("empty Fragments answered non-nil")
	}
}

// TestBuildFragmentsDelta proves the incremental path: fragments for
// errata shared (by pointer) with the previous snapshot are reused
// without re-marshaling, new errata get fresh fragments, and the result
// is indistinguishable from a cold build.
func TestBuildFragmentsDelta(t *testing.T) {
	gt, err := corpus.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	db := gt.DB
	prev, err := BuildFragments(db)
	if err != nil {
		t.Fatal(err)
	}

	// Same database: every fragment must be reused, not rebuilt.
	same, err := BuildFragmentsDelta(prev, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range db.Errata() {
		a, b := prev.Detail(e), same.Detail(e)
		if len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("%s#%d: delta rebuilt an unchanged fragment", e.DocKey, e.Seq)
		}
	}

	// A nil previous snapshot degenerates to a cold build.
	cold, err := BuildFragmentsDelta(nil, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range db.Errata() {
		if !bytes.Equal(cold.Detail(e), prev.Detail(e)) {
			t.Fatalf("%s#%d: nil-prev delta differs from cold build", e.DocKey, e.Seq)
		}
	}
}
