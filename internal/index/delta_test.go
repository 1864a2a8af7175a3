package index

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// mustEqual fails unless the two indexes dump identically — the
// structural-equality oracle MergeDelta is specified against.
func mustEqual(t *testing.T, got, want *Index, what string) {
	t.Helper()
	g, w := got.DebugDump(), want.DebugDump()
	if !bytes.Equal(g, w) {
		gl, wl := bytes.Split(g, []byte("\n")), bytes.Split(w, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s: dump line %d:\n got %s\nwant %s", what, i, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: dumps differ in length (%d vs %d lines)", what, len(gl), len(wl))
	}
}

// merged runs MergeDelta and checks the remap it returns: it has one
// slot per previous entry, every survivor maps to the same pointer at a
// strictly increasing new ordinal, and no entry db still holds is
// dropped.
func merged(t *testing.T, prev *Index, db *domain.Database) *Index {
	t.Helper()
	ix, remap := MergeDelta(prev, db)
	if prev == nil {
		if remap != nil {
			t.Fatalf("MergeDelta(nil, db) returned a remap of %d slots", len(remap))
		}
		return ix
	}
	if len(remap) != prev.Size() {
		t.Fatalf("remap has %d slots for %d previous entries", len(remap), prev.Size())
	}
	at := make(map[*domain.Erratum]int, ix.Size())
	for ord := 0; ord < ix.Size(); ord++ {
		at[ix.Entry(ord)] = ord
	}
	last := -1
	for old, o := range remap {
		e := prev.Entry(old)
		if o < 0 {
			if ord, ok := at[e]; ok {
				t.Fatalf("previous entry %s dropped though db holds it at %d", e.FullID(), ord)
			}
			continue
		}
		if ix.Entry(o) != e || o <= last {
			t.Fatalf("remap[%d] = %d: entry %s, previous survivor at %d", old, o, e.FullID(), last)
		}
		last = o
	}
	return ix
}

// shareDB returns a database holding the same document pointers as db,
// minus the listed keys — the deletion shape of a delta.
func shareDB(t *testing.T, db *domain.Database, drop ...string) *domain.Database {
	t.Helper()
	next := domain.NewDatabase(taxonomy.Base())
	next.Scheme = db.Scheme
	gone := make(map[string]bool, len(drop))
	for _, k := range drop {
		gone[k] = true
	}
	for k, d := range db.Docs {
		if !gone[k] {
			next.Docs[k] = d
		}
	}
	return next
}

func TestMergeDeltaNilPrevEqualsBuild(t *testing.T) {
	db := smallDB(t)
	mustEqual(t, merged(t, nil, db), Build(db), "nil prev")
}

func TestMergeDeltaNoChange(t *testing.T) {
	db := smallDB(t)
	prev := Build(db)
	mustEqual(t, merged(t, prev, shareDB(t, db)), Build(db), "identity delta")
}

func TestMergeDeltaAddDocument(t *testing.T) {
	db := smallDB(t)
	prev := Build(db)
	next := shareDB(t, db)
	if err := next.Add(&domain.Document{
		Key: "intel-03", Vendor: domain.Intel, Label: "3", Order: 2,
		Released: time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC),
		Errata: []*domain.Erratum{
			{
				DocKey: "intel-03", ID: "CCC001", Seq: 1, Key: "k3",
				Title: "New cache coherency issue",
				Fix:   domain.FixDone,
				Ann: domain.Annotation{
					Triggers:          []domain.Item{{Category: "Trg_MOP_fen"}},
					Effects:           []domain.Item{{Category: "Eff_HNG_hng"}},
					MSRs:              []string{"MCx_STATUS"},
					ComplexConditions: true,
				},
			},
			// A new occurrence of an existing cluster: postings for k1
			// must union the remapped and the fresh ordinals.
			{
				DocKey: "intel-03", ID: "CCC002", Seq: 2, Key: "k1",
				Title: "Power state hang",
				Ann: domain.Annotation{
					Triggers: []domain.Item{{Category: "Trg_POW_pwc"}},
					Effects:  []domain.Item{{Category: "Eff_HNG_hng"}},
				},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, merged(t, prev, next), Build(next), "add document")
}

func TestMergeDeltaRemoveDocument(t *testing.T) {
	db := smallDB(t)
	prev := Build(db)
	next := shareDB(t, db, "intel-01")
	mustEqual(t, merged(t, prev, next), Build(next), "remove document")
}

// TestMergeDeltaRelabelClone exercises the clone-on-change half of the
// sharing contract: an entry whose cluster key must change is cloned
// (document shallow-copied), the stale pointer drops out of the remap,
// and the clone is indexed as a new entry.
func TestMergeDeltaRelabelClone(t *testing.T) {
	db := smallDB(t)
	prev := Build(db)
	next := shareDB(t, db)
	old := next.Docs["intel-02"]
	renamed := old.Errata[0].Clone()
	renamed.Key = "k9"
	dc := *old
	dc.Errata = []*domain.Erratum{renamed}
	next.Docs["intel-02"] = &dc
	got := merged(t, prev, next)
	mustEqual(t, got, Build(next), "relabel clone")
	if hits := got.ByKey("k9"); len(hits) != 1 || hits[0] != renamed {
		t.Fatalf("ByKey(k9) = %v, want the renamed clone", hits)
	}
}

// TestMergeDeltaForeignPrev pins the degenerate case: merging against
// an index whose database shares nothing with db must still equal a
// cold Build (everything is indexed fresh, nothing remaps).
func TestMergeDeltaForeignPrev(t *testing.T) {
	db := smallDB(t)
	foreign := domain.NewDatabase(taxonomy.Base())
	foreign.Scheme = db.Scheme
	if err := foreign.Add(&domain.Document{
		Key: "other-01", Vendor: domain.AMD, Label: "x", Order: 0,
		Errata: []*domain.Erratum{{
			DocKey: "other-01", ID: "999", Seq: 1, Key: "a9",
			Title: "Unrelated issue",
		}},
	}); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, merged(t, Build(foreign), db), Build(db), "foreign prev")
}
