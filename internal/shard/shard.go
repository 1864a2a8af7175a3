// Package shard partitions one domain.Database into N horizontal shards
// and merges per-shard query results back into the global result
// order — the scale-out layer under the serving tier.
//
// The partitioning axis is the deduplicated cluster key: every
// occurrence of one erratum (the entries sharing a dedup key) lands on
// the same shard, chosen by FNV-1a hash of the key modulo the shard
// count. Point lookups by key therefore route to exactly one shard
// (Owner), and per-shard Unique() representative selection agrees with
// the unpartitioned database, because a shard always sees the complete
// occurrence set of every key it owns. Errata that have not been
// deduplicated (empty key) hash on their globally unique FullID under
// a separate namespace, so they spread across shards without ever
// colliding with a real cluster key.
//
// Each shard owns a self-contained sub-database: shallow per-document
// copies whose Errata slices hold only the shard's entries (the
// Erratum values themselves are shared, never copied — the tier is
// read-only by construction, exactly like the single-process serving
// snapshot). Because document metadata (vendor, chronological order)
// is preserved and every database ordering in pkg/domain sorts on those
// fields, each shard's local result order is a subsequence of the
// global order. Merge exploits that: it k-way-merges the per-shard
// result lists by precomputed global rank and is therefore
// deterministic and byte-identical to the unpartitioned execution,
// which the serving-layer equivalence tests pin across shard counts.
package shard

import (
	"hash/fnv"

	"repro/internal/index"
	"repro/pkg/domain"
)

// Owner returns the shard (0..n-1) owning the given dedup cluster key.
func Owner(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// ownerOf places one erratum: by cluster key when deduplicated, by
// FullID otherwise. The "\x00" prefix keeps the keyless namespace
// disjoint from cluster keys (no FullID can alias a key's shard).
func ownerOf(e *domain.Erratum, n int) int {
	if e.Key != "" {
		return Owner(e.Key, n)
	}
	return Owner("\x00"+e.FullID(), n)
}

// Shard is one partition: a sub-database holding the errata it owns
// plus the inverted index built over it.
type Shard struct {
	// ID is the shard's position in the cluster (0-based).
	ID int
	// DB is the shard's sub-database (documents filtered to owned errata).
	DB *domain.Database
	// IX is the shard-local inverted index.
	IX *index.Index
}

// Cluster is a full partitioning of one database snapshot. It is
// immutable after Partition and safe for concurrent readers; reloads
// build a fresh Cluster and swap it in atomically (internal/serve).
type Cluster struct {
	// N is the shard count.
	N int
	// Shards lists the partitions; every erratum of the source database
	// appears in exactly one.
	Shards []*Shard

	// allRank and uniqueRank give each entry's position in the global
	// db.Errata() and db.Unique() orderings; Merge restores the global
	// order from per-shard subsequences by comparing these ranks.
	allRank    map[*domain.Erratum]int
	uniqueRank map[*domain.Erratum]int
}

// Partition splits db into n shards (n < 1 is treated as 1). The
// caller must not mutate db afterwards; the shards alias its documents'
// errata.
func Partition(db *domain.Database, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	all := db.Errata()
	uniq := db.Unique()
	c := &Cluster{
		N:          n,
		allRank:    make(map[*domain.Erratum]int, len(all)),
		uniqueRank: make(map[*domain.Erratum]int, len(uniq)),
	}
	for i, e := range all {
		c.allRank[e] = i
	}
	for i, e := range uniq {
		c.uniqueRank[e] = i
	}

	dbs := make([]*domain.Database, n)
	for i := range dbs {
		dbs[i] = &domain.Database{Docs: make(map[string]*domain.Document), Scheme: db.Scheme}
	}
	for _, d := range db.Documents() {
		parts := make([][]*domain.Erratum, n)
		for _, e := range d.Errata {
			o := ownerOf(e, n)
			parts[o] = append(parts[o], e)
		}
		for i, p := range parts {
			if len(p) == 0 {
				continue
			}
			// Shallow document copy: metadata (vendor, order, revisions)
			// is shared, only the errata slice is the shard's subset.
			dc := *d
			dc.Errata = p
			dbs[i].Docs[d.Key] = &dc
		}
	}
	c.Shards = make([]*Shard, n)
	for i, sdb := range dbs {
		c.Shards[i] = &Shard{ID: i, DB: sdb, IX: index.Build(sdb)}
	}
	return c
}

// Entries returns the total number of indexed entries across all
// shards (duplicates counted individually), equal to the source
// database's entry count.
func (c *Cluster) Entries() int { return len(c.allRank) }

// UniqueCount returns the number of unique representatives across all
// shards, equal to the source database's unique count.
func (c *Cluster) UniqueCount() int { return len(c.uniqueRank) }

// ByKey routes a point lookup to the owning shard and returns every
// occurrence of the key, in the same document order as an
// unpartitioned index lookup (the shard holds the full occurrence set).
func (c *Cluster) ByKey(key string) []*domain.Erratum {
	if key == "" {
		return nil
	}
	return c.Shards[Owner(key, c.N)].IX.ByKey(key)
}

// Merge gathers per-shard result lists — each already sorted in global
// order, as produced by a shard-local index query — into the global
// page [offset, offset+limit) and the global total. unique selects
// which global ordering applies (db.Unique() vs db.Errata() order).
// The merge stops as soon as the page is full, so deep result sets pay
// only for the rows actually returned. A nil page with the true total
// is returned when offset is past the end or limit is zero, matching
// the single-process pagination contract.
func (c *Cluster) Merge(lists [][]*domain.Erratum, unique bool, offset, limit int) ([]*domain.Erratum, int) {
	rank := c.allRank
	if unique {
		rank = c.uniqueRank
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if offset >= total || limit <= 0 {
		return nil, total
	}
	end := offset + limit
	if end > total || end < 0 { // end < 0: offset+limit overflowed
		end = total
	}
	heads := make([]int, len(lists))
	out := make([]*domain.Erratum, 0, end-offset)
	for produced := 0; produced < end; produced++ {
		best, bestRank := -1, 0
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if r := rank[l[heads[i]]]; best < 0 || r < bestRank {
				best, bestRank = i, r
			}
		}
		if best < 0 {
			break
		}
		e := lists[best][heads[best]]
		heads[best]++
		if produced >= offset {
			out = append(out, e)
		}
	}
	return out, total
}
