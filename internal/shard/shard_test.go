package shard

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/pkg/domain"
)

func testDB(t testing.TB, seed int64) *domain.Database {
	t.Helper()
	gt, err := corpus.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return gt.DB
}

func TestOwner(t *testing.T) {
	if got := Owner("anything", 1); got != 0 {
		t.Fatalf("Owner(_, 1) = %d, want 0", got)
	}
	if got := Owner("anything", 0); got != 0 {
		t.Fatalf("Owner(_, 0) = %d, want 0", got)
	}
	// Deterministic, in range, and spread: 1000 distinct keys over 4
	// shards must populate every shard.
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		o := Owner(key, 4)
		if o < 0 || o >= 4 {
			t.Fatalf("Owner(%q, 4) = %d out of range", key, o)
		}
		if again := Owner(key, 4); again != o {
			t.Fatalf("Owner(%q, 4) unstable: %d then %d", key, o, again)
		}
		seen[o]++
	}
	for sh := 0; sh < 4; sh++ {
		if seen[sh] == 0 {
			t.Errorf("shard %d received no keys out of 1000", sh)
		}
	}
}

// TestPartitionCovers proves the partition is exact: every entry of the
// source database appears in exactly one shard, all occurrences of a
// key co-locate on the owner shard, and the cluster-level counts equal
// the unpartitioned ones.
func TestPartitionCovers(t *testing.T) {
	db := testDB(t, 1)
	full := db.Errata()
	for _, n := range []int{1, 4, 16} {
		c := Partition(db, n)
		if c.Entries() != len(full) {
			t.Fatalf("n=%d: Entries() = %d, want %d", n, c.Entries(), len(full))
		}
		if c.UniqueCount() != len(db.Unique()) {
			t.Fatalf("n=%d: UniqueCount() = %d, want %d", n, c.UniqueCount(), len(db.Unique()))
		}
		placed := make(map[*domain.Erratum]int)
		sum, uniqueSum := 0, 0
		for _, sh := range c.Shards {
			sum += sh.IX.Size()
			uniqueSum += sh.IX.UniqueCount()
			for _, e := range sh.DB.Errata() {
				if prev, dup := placed[e]; dup {
					t.Fatalf("n=%d: %s on shards %d and %d", n, e.FullID(), prev, sh.ID)
				}
				placed[e] = sh.ID
				if e.Key != "" && sh.ID != Owner(e.Key, n) {
					t.Fatalf("n=%d: %s (key %s) on shard %d, owner is %d",
						n, e.FullID(), e.Key, sh.ID, Owner(e.Key, n))
				}
			}
		}
		if len(placed) != len(full) || sum != len(full) {
			t.Fatalf("n=%d: placed %d entries (index sum %d), want %d", n, len(placed), sum, len(full))
		}
		if uniqueSum != c.UniqueCount() {
			t.Fatalf("n=%d: per-shard unique sum %d != cluster unique %d", n, uniqueSum, c.UniqueCount())
		}
	}
}

// fanout runs the same filtered query on every shard and returns the
// per-shard result lists.
func fanout(c *Cluster, unique bool, apply func(*index.Query) *index.Query) [][]*domain.Erratum {
	lists := make([][]*domain.Erratum, len(c.Shards))
	for i, sh := range c.Shards {
		q := apply(sh.IX.Query())
		if unique {
			lists[i] = q.Unique()
		} else {
			lists[i] = q.All()
		}
	}
	return lists
}

func sameErrata(a, b []*domain.Erratum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMergeMatchesUnpartitioned is the package-level equivalence
// contract: for a matrix of filters, shard counts and pages, the merged
// scatter-gather result is pointer-identical to the page the
// unpartitioned index produces.
func TestMergeMatchesUnpartitioned(t *testing.T) {
	db := testDB(t, 2)
	single := index.Build(db)
	filters := []struct {
		name  string
		apply func(*index.Query) *index.Query
	}{
		{"all", func(q *index.Query) *index.Query { return q }},
		{"vendor-intel", func(q *index.Query) *index.Query { return q.Vendor(domain.Intel) }},
		{"doc", func(q *index.Query) *index.Query { return q.InDocument("intel-06") }},
		{"category", func(q *index.Query) *index.Query { return q.WithCategory("Eff_HNG_hng") }},
		// Unknown category: zero matches on every shard.
		{"category-none", func(q *index.Query) *index.Query { return q.WithCategory("Trg_XXX_xxx") }},
		{"title", func(q *index.Query) *index.Query { return q.TitleContains("the") }},
	}
	pages := []struct{ offset, limit int }{
		{0, 100}, {0, 1}, {3, 7}, {50, 25}, {0, 1 << 30}, {0, 0}, {1 << 30, 10},
	}
	for _, n := range []int{1, 3, 4, 16} {
		c := Partition(db, n)
		for _, f := range filters {
			for _, uniq := range []bool{true, false} {
				var ref []*domain.Erratum
				if uniq {
					ref = f.apply(single.Query()).Unique()
				} else {
					ref = f.apply(single.Query()).All()
				}
				lists := fanout(c, uniq, f.apply)
				for _, p := range pages {
					got, total := c.Merge(lists, uniq, p.offset, p.limit)
					if total != len(ref) {
						t.Fatalf("n=%d %s unique=%v: total %d, want %d", n, f.name, uniq, total, len(ref))
					}
					want := ref
					if p.offset < len(want) {
						want = want[p.offset:]
					} else {
						want = nil
					}
					if len(want) > p.limit {
						want = want[:p.limit]
					}
					if !sameErrata(got, want) {
						t.Fatalf("n=%d %s unique=%v offset=%d limit=%d: merged %d rows != reference %d",
							n, f.name, uniq, p.offset, p.limit, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestMergeEdges pins the pagination edges on the merge itself:
// offset past the global total, limit zero, and an offset+limit sum
// that would overflow int.
func TestMergeEdges(t *testing.T) {
	db := testDB(t, 3)
	c := Partition(db, 4)
	lists := fanout(c, true, func(q *index.Query) *index.Query { return q })
	total := 0
	for _, l := range lists {
		total += len(l)
	}

	if page, tot := c.Merge(lists, true, total, 10); len(page) != 0 || tot != total {
		t.Fatalf("offset==total: %d rows, total %d (want 0, %d)", len(page), tot, total)
	}
	if page, tot := c.Merge(lists, true, total+100, 10); len(page) != 0 || tot != total {
		t.Fatalf("offset past total: %d rows, total %d (want 0, %d)", len(page), tot, total)
	}
	if page, tot := c.Merge(lists, true, 0, 0); len(page) != 0 || tot != total {
		t.Fatalf("limit=0: %d rows, total %d (want 0, %d)", len(page), tot, total)
	}
	// Overflow guard: a huge offset with a huge limit must not wrap.
	const big = int(^uint(0) >> 1) // MaxInt
	if page, tot := c.Merge(lists, true, big, big); len(page) != 0 || tot != total {
		t.Fatalf("overflowing page: %d rows, total %d (want 0, %d)", len(page), tot, total)
	}
	if page, _ := c.Merge(lists, true, total-1, big); len(page) != 1 {
		t.Fatalf("final-row page with overflowing end: %d rows, want 1", len(page))
	}
}

// TestByKeyRouting proves point lookups route to the owning shard and
// return the identical occurrence list the unpartitioned index returns,
// including for a key owned by the last shard.
func TestByKeyRouting(t *testing.T) {
	db := testDB(t, 1)
	single := index.Build(db)
	const n = 4
	c := Partition(db, n)

	perOwner := make(map[int]string)
	for _, e := range db.Errata() {
		if e.Key == "" {
			continue
		}
		o := Owner(e.Key, n)
		if _, ok := perOwner[o]; !ok {
			perOwner[o] = e.Key
		}
	}
	if len(perOwner) != n {
		t.Fatalf("corpus keys cover %d/%d shards", len(perOwner), n)
	}
	if _, ok := perOwner[n-1]; !ok {
		t.Fatal("no key owned by the last shard")
	}
	for owner, key := range perOwner {
		got, want := c.ByKey(key), single.ByKey(key)
		if !sameErrata(got, want) {
			t.Fatalf("shard %d key %s: %d occurrences != single %d", owner, key, len(got), len(want))
		}
		// The occurrences live on the owner shard only.
		for sh := 0; sh < n; sh++ {
			if sh != owner && len(c.Shards[sh].IX.ByKey(key)) != 0 {
				t.Fatalf("key %s leaked onto shard %d (owner %d)", key, sh, owner)
			}
		}
	}
	if c.ByKey("") != nil {
		t.Fatal("empty key lookup returned occurrences")
	}
	if got := c.ByKey("no-such-key"); len(got) != 0 {
		t.Fatalf("unknown key returned %d occurrences", len(got))
	}
}
