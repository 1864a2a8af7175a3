package store

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/pkg/domain"
)

// TestFragmentsMatchMarshal is the byte-identity contract behind the
// zero-allocation serve path: every precomputed row must equal
// json.Marshal of the corresponding DTO, for every erratum and key, both
// as built in the heap and as read in place from a v2 file. Some titles
// and IDs carry the `,"seq":` field opener the summary row is cut at,
// next to quotes, backslashes, HTML and line separators, so a cut
// inside an encoded string would show.
func TestFragmentsMatchMarshal(t *testing.T) {
	gt, err := corpus.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	db := gt.DB
	hostile := []string{`,"seq":`, `a,"seq":1,"b`, `\",\"seq\":`, `"q" \ ,"seq":0}`,
		`<b>&amp;</b>,"seq":`, "line\u2028sep\u2029,\"seq\":", `\`}
	for i, e := range db.Errata() {
		if i%7 == 0 {
			h := hostile[i/7%len(hostile)]
			e.Title += h
			e.ID += h
		}
	}
	built, err := BuildFragments(db)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeV2(db, V2Options{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := openStoreV2(enc)
	if err != nil {
		t.Fatal(err)
	}
	errata := db.Errata()
	for name, frags := range map[string]*Fragments{"built": built, "v2": sv.Fragments()} {
		if frags.Len() != len(errata) {
			t.Fatalf("%s: %d rows for %d errata", name, frags.Len(), len(errata))
		}
		for ord, e := range errata {
			wantD, err := json.Marshal(DetailOf(db, e))
			if err != nil {
				t.Fatal(err)
			}
			if got := frags.Detail(ord); !bytes.Equal(got, wantD) {
				t.Fatalf("%s: %s#%d: detail fragment differs:\n got %s\nwant %s", name, e.DocKey, e.Seq, got, wantD)
			}
			wantS, err := json.Marshal(Summarize(db, e))
			if err != nil {
				t.Fatal(err)
			}
			if got := frags.Summary(ord); !bytes.Equal(got, wantS) {
				t.Fatalf("%s: %s#%d: summary fragment differs:\n got %s\nwant %s", name, e.DocKey, e.Seq, got, wantS)
			}
			var wantK []byte
			if e.Key != "" {
				wantK, _ = json.Marshal(e.Key)
			}
			if got := frags.KeyJSON(ord); !bytes.Equal(got, wantK) {
				t.Fatalf("%s: key %q: %s != %s", name, e.Key, got, wantK)
			}
		}
	}
}

// TestKeyJSONEscapes holds the key literal sliced out of a summary row
// to json.Marshal of the key when the full ID and the key need escapes:
// quotes and backslashes, HTML characters, control bytes, line
// separators and invalid UTF-8.
func TestKeyJSONEscapes(t *testing.T) {
	db := sampleDB(t)
	for i, e := range db.Errata() {
		e.ID = `id"\` + string(rune('a'+i))
	}
	keys := []string{`k"1`, `k\"`, "<a&b>", "tab\tnl\n\x01", "sep\u2028\u2029", "bad\xff\xfe", `\`, `"`}
	errata := db.Errata()
	for i, k := range keys {
		e := errata[i%len(errata)]
		e.Key = k
		frags, err := BuildFragments(db)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(k)
		if got := frags.KeyJSON(i % len(errata)); !bytes.Equal(got, want) {
			t.Fatalf("key %q: KeyJSON %s, want %s", k, got, want)
		}
	}
}

// TestFragmentsNilSafety proves a nil or empty *Fragments always answers
// nil, so a store without a fragment section is safe to query, and that
// an ordinal out of range answers nil too.
func TestFragmentsNilSafety(t *testing.T) {
	var f *Fragments
	if f.Detail(0) != nil || f.Summary(0) != nil || f.KeyJSON(0) != nil || f.Len() != 0 {
		t.Fatal("nil Fragments answered non-nil")
	}
	var empty Fragments
	if empty.Detail(0) != nil || empty.Summary(0) != nil || empty.KeyJSON(0) != nil {
		t.Fatal("empty Fragments answered non-nil")
	}
	built, err := BuildFragments(sampleDB(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range []int{-1, built.Len()} {
		if built.Detail(ord) != nil || built.Summary(ord) != nil || built.KeyJSON(ord) != nil {
			t.Fatalf("ordinal %d of %d rows answered non-nil", ord, built.Len())
		}
	}
}

// TestBuildFragmentsDelta proves the incremental path: rows of errata
// carried by the merge's remap are reused without re-marshaling, the
// rows of fresh errata are marshaled, and the result is byte-equal to a
// cold build over the new database.
func TestBuildFragmentsDelta(t *testing.T) {
	gt, err := corpus.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	db := gt.DB
	prevIx := index.Build(db)
	prev, err := BuildFragments(db)
	if err != nil {
		t.Fatal(err)
	}

	// Same database: every row must be reused, not rebuilt.
	ix, remap := index.MergeDelta(prevIx, db)
	same, err := BuildFragmentsDelta(prev, ix, remap)
	if err != nil {
		t.Fatal(err)
	}
	for ord := range db.Errata() {
		a, b := prev.Detail(ord), same.Detail(ord)
		if len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("ordinal %d: delta rebuilt an unchanged fragment", ord)
		}
	}

	// Replace the first document with a copy of fresh entries: its rows
	// are marshaled anew, every other row is carried over, and the whole
	// table equals a cold build.
	next := domain.NewDatabase(db.Scheme)
	for k, d := range db.Docs {
		next.Docs[k] = d
	}
	first := db.Documents()[0]
	dc := *first
	dc.Errata = make([]*domain.Erratum, len(first.Errata))
	for i, e := range first.Errata {
		dc.Errata[i] = e.Clone()
		dc.Errata[i].Title += " (revised)"
	}
	next.Docs[first.Key] = &dc
	ix, remap = index.MergeDelta(prevIx, next)
	delta, err := BuildFragmentsDelta(prev, ix, remap)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := BuildFragments(next)
	if err != nil {
		t.Fatal(err)
	}
	for ord, e := range ix.Errata() {
		if !bytes.Equal(delta.Detail(ord), cold.Detail(ord)) || !bytes.Equal(delta.Summary(ord), cold.Summary(ord)) {
			t.Fatalf("%s: delta row differs from cold build", e.FullID())
		}
		reused := &delta.Detail(ord)[0] == &prev.Detail(ord)[0]
		if fresh := e.DocKey == first.Key; reused == fresh {
			t.Fatalf("%s: row reused=%v for a fresh=%v entry", e.FullID(), reused, fresh)
		}
	}
}
