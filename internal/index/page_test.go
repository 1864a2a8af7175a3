package index_test

import (
	"math/rand"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/queryref"
	"repro/internal/store"
	"repro/pkg/domain"
)

// TestPageMatchesReference holds Query.Page to the reference evaluator.
// For seeds 1-3, on an index from Build, from MergeDelta after one
// document is replaced, and from FromLists over a mapped v2 file, the
// page of every filter set at every offset and limit, unique or not,
// must equal the same window of internal/queryref's answer, and its
// total must equal that answer's length.
func TestPageMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		indexes := pageIndexes(t, gt.DB)
		for _, raw := range pageQueries(gt.DB, seed) {
			values, err := url.ParseQuery(raw)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, raw, err)
			}
			filters, err := index.ParseFilters(values)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, raw, err)
			}
			ref, err := queryref.Parse(raw)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, raw, err)
			}
			for _, c := range indexes {
				for _, unique := range []bool{false, true} {
					want := ref.Match(c.ix.Database(), unique)
					n := len(want)
					for _, offset := range []int{0, 1, n - 1, n, n + 1, 1 << 40} {
						if offset < 0 {
							continue
						}
						for _, limit := range []int{0, 1, 25, 1000} {
							ords, total := filters.Apply(c.ix.Query()).Page(offset, limit, unique)
							w := want[min(offset, n):]
							w = w[:min(limit, len(w))]
							if total != n || !samePage(c.ix, ords, w) {
								t.Fatalf("seed %d, %s: %q unique=%v offset=%d limit=%d: page %v of %d, want %v of %d",
									seed, c.name, raw, unique, offset, limit, pageIDs(c.ix, ords), total, ids(w), n)
							}
						}
					}
				}
			}
		}
	}
}

type namedIndex struct {
	name string
	ix   *index.Index
}

// pageIndexes returns the three ways an index over db is made: Build,
// MergeDelta from an index whose middle document held other entries
// (clones with other titles, one fewer, so every later ordinal moves),
// and FromLists over a mapped v2 file.
func pageIndexes(t *testing.T, db *domain.Database) []namedIndex {
	t.Helper()
	keys := make([]string, 0, len(db.Docs))
	for k := range db.Docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	before := domain.NewDatabase(db.Scheme)
	for k, d := range db.Docs {
		before.Docs[k] = d
	}
	old := *db.Docs[keys[len(keys)/2]]
	old.Errata = nil
	for _, e := range db.Docs[old.Key].Errata[1:] {
		clone := *e
		clone.Title = "Draft " + strings.ToUpper(e.Title)
		old.Errata = append(old.Errata, &clone)
	}
	before.Docs[old.Key] = &old
	mergedIx, _ := index.MergeDelta(index.Build(before), db)

	path := filepath.Join(t.TempDir(), "db.v2")
	if err := store.SaveFormat(db, path, "v2"); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	sv := r.(*store.StoreV2)
	mapped, err := sv.Database()
	if err != nil {
		t.Fatal(err)
	}
	fromLists, err := index.FromLists(mapped, sv.IndexLists())
	if err != nil {
		t.Fatal(err)
	}
	return []namedIndex{{"build", index.Build(db)}, {"merge-delta", mergedIx}, {"from-lists", fromLists}}
}

// pageQueries returns /v1/errata filter sets over db's vocabulary: the
// bare query, compound filters of one to three of query-cold's
// dimensions, title substrings cut from real titles (bare, and behind
// a vendor), TestTitleContainsNonASCII's case folds, and values no
// entry carries.
func pageQueries(db *domain.Database, seed int64) []string {
	var docs, cats, triggers, classes, msrs, titles []string
	seen := make(map[string]bool)
	add := func(to *[]string, kind, v string) {
		if v != "" && !seen[kind+"\x00"+v] {
			seen[kind+"\x00"+v] = true
			*to = append(*to, v)
		}
	}
	for k := range db.Docs {
		docs = append(docs, k)
	}
	for _, e := range db.Errata() {
		titles = append(titles, e.Title)
		for _, k := range domain.Kinds {
			for _, it := range e.Ann.Items(k) {
				add(&cats, "category", it.Category)
				add(&classes, "class", db.Scheme.ClassOf(it.Category))
				if k == domain.Trigger {
					add(&triggers, "trigger", it.Category)
				}
			}
		}
		for _, m := range e.Ann.MSRs {
			add(&msrs, "msr", m)
		}
	}
	for _, vs := range [][]string{docs, cats, triggers, classes, msrs} {
		sort.Strings(vs)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs []string) string { return vs[rng.Intn(len(vs))] }
	cut := func() string {
		title := pick(titles)
		i := rng.Intn(len(title))
		sub := title[i:min(len(title), i+1+rng.Intn(12))]
		if rng.Intn(2) == 0 {
			sub = strings.ToUpper(sub)
		}
		return sub
	}

	queries := []string{"", "category=Nope", "msr=Nope&vendor=Intel", "title=" + url.QueryEscape("no title holds this")}
	for i := 0; i < 48; i++ {
		v := url.Values{}
		for _, d := range rng.Perm(7)[:1+i%3] {
			switch d {
			case 0:
				v.Set("vendor", []string{"Intel", "AMD"}[rng.Intn(2)])
			case 1:
				v.Set("doc", pick(docs))
			case 2:
				v.Set("trigger", pick(triggers))
			case 3:
				v.Set("category", pick(cats))
			case 4:
				v.Set("class", pick(classes))
			case 5:
				v.Set("min_triggers", []string{"1", "2", "3"}[rng.Intn(3)])
			case 6:
				v.Set("msr", pick(msrs))
			}
		}
		queries = append(queries, v.Encode())
	}
	for i := 0; i < 24; i++ {
		v := url.Values{"title": {cut()}}
		if i%3 == 0 {
			v.Set("vendor", []string{"Intel", "AMD"}[rng.Intn(2)])
		}
		queries = append(queries, v.Encode())
	}
	for _, fold := range []string{"\u0130nvalid", "invalid", "\u0130n", "\u212a", "50 k th", "\u1e9ee", "\u00dfe", "\xff", "\ufffd\ufffd byte", "CACHE"} {
		queries = append(queries, "title="+url.QueryEscape(fold))
	}
	return queries
}

func samePage(ix *index.Index, ords []int, want []*domain.Erratum) bool {
	if len(ords) != len(want) {
		return false
	}
	for i, ord := range ords {
		if ix.Entry(ord) != want[i] {
			return false
		}
	}
	return true
}

func pageIDs(ix *index.Index, ords []int) []string {
	out := make([]string, len(ords))
	for i, ord := range ords {
		out[i] = ix.Entry(ord).FullID()
	}
	return out
}
