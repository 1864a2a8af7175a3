package index_test

import (
	"bytes"
	"net/url"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/queryref"
	"repro/internal/store"
	"repro/pkg/domain"
)

// titleDoc returns one document whose errata carry the given titles,
// each its own cluster.
func titleDoc(key string, vendor domain.Vendor, order int, titles ...string) *domain.Document {
	d := &domain.Document{Key: key, Vendor: vendor, Label: key, Order: order}
	for i, title := range titles {
		d.Errata = append(d.Errata, &domain.Erratum{
			DocKey: key, ID: key + "-" + string(rune('a'+i)), Seq: i + 1,
			Key: key + "/" + string(rune('a'+i)), Title: title,
		})
	}
	return d
}

func titleDB(t *testing.T, docs ...*domain.Document) *domain.Database {
	t.Helper()
	db := domain.NewDatabase(domain.BaseScheme())
	for _, d := range docs {
		if err := db.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestTitleContainsNonASCII holds TitleContains to the reference
// evaluator on titles whose strings.ToLower changes byte length or maps
// oddly, over all three ways an index is made: Build, MergeDelta after
// one document is replaced, and FromLists over a mapped v2 file.
func TestTitleContainsNonASCII(t *testing.T) {
	kept := titleDoc("intel-01", domain.Intel, 0,
		"\u0130NVALID Opcode Fault",      // İ lowers to ASCII i: one byte shorter
		"50 \u212a Thermal Trip",         // the Kelvin sign lowers to ASCII k: two bytes shorter
		"STRA\u1e9eE Buffer Overflow",    // capital sharp s lowers to ß: one byte shorter
		"Bad \xff\xfe Byte In Cache Tag", // invalid UTF-8 lowers to U+FFFD: each byte grows to three
		"Core May Hang",
	)
	neighbour := titleDoc("intel-02", domain.Intel, 1, "Cache Parity Error")
	replaced := titleDoc("amd-01", domain.AMD, 0, "Old Title Gone")
	before := titleDB(t, kept, neighbour, replaced)
	after := titleDB(t, kept, neighbour, titleDoc("amd-01", domain.AMD, 0, "Kelvin \u212a In \u0130 Title", "Stale Read"))

	path := filepath.Join(t.TempDir(), "db.v2")
	if err := store.SaveFormat(after, path, "v2"); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Mapped() {
		t.Skip("mmap unsupported on this platform")
	}
	sv := r.(*store.StoreV2)
	mapped, err := sv.Database()
	if err != nil {
		t.Fatal(err)
	}
	fromLists, err := index.FromLists(mapped, sv.IndexLists())
	if err != nil {
		t.Fatal(err)
	}

	mergedIx, _ := index.MergeDelta(index.Build(before), after)
	indexes := []struct {
		name string
		ix   *index.Index
	}{
		{"build", index.Build(after)},
		{"merge-delta", mergedIx},
		{"from-lists", fromLists},
	}
	want := indexes[0].ix.DebugDump()
	for _, c := range indexes[1:] {
		if got := c.ix.DebugDump(); !bytes.Equal(got, want) {
			t.Fatalf("%s dumps differently from build:\n%s\nwant:\n%s", c.name, got, want)
		}
	}

	for _, tc := range []struct {
		sub  string
		want int // matching entries, so an empty oracle cannot pass vacuously
	}{
		{"\u0130nvalid", 1},
		{"invalid", 1}, // strings.ToLower maps İ to a plain i
		{"\u0130n", 3},
		{"\u212a", 2},  // the Kelvin sign and ASCII k fold alike
		{"50 k th", 1}, // ASCII k matches the folded Kelvin sign
		{"\u1e9ee", 1},
		{"\u00dfe", 1},
		{"sse", 0},
		{"\xff", 1}, // both sides lower invalid bytes to U+FFFD
		{"\ufffd\ufffd byte", 1},
		{"CACHE", 2},
		{"hangcache", 0}, // spans the end of one title and the start of the next
		{"hang\ncache", 0},
		{"", 8},
	} {
		ref, err := queryref.Parse("title=" + url.QueryEscape(tc.sub))
		if err != nil {
			t.Fatalf("%q: %v", tc.sub, err)
		}
		for _, c := range indexes {
			db := c.ix.Database()
			all := c.ix.Query().TitleContains(tc.sub).All()
			if len(all) != tc.want {
				t.Errorf("%s: %q matched %d entries, want %d", c.name, tc.sub, len(all), tc.want)
			}
			if !sameIDs(all, ref.Match(db, false)) {
				t.Errorf("%s: %q all = %v, reference %v", c.name, tc.sub, ids(all), ids(ref.Match(db, false)))
			}
			if uniq := c.ix.Query().TitleContains(tc.sub).Unique(); !sameIDs(uniq, ref.Match(db, true)) {
				t.Errorf("%s: %q unique = %v, reference %v", c.name, tc.sub, ids(uniq), ids(ref.Match(db, true)))
			}
		}
	}
}

func ids(es []*domain.Erratum) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.FullID())
	}
	return out
}

func sameIDs(a, b []*domain.Erratum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].FullID() != b[i].FullID() {
			return false
		}
	}
	return true
}
