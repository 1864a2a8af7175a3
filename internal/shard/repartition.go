package shard

import (
	"repro/internal/index"
	"repro/pkg/domain"
)

// Repartition builds the cluster for db by reusing every shard of prev
// that the latest delta did not touch, rebuilding only the affected
// ones. It is the sharded counterpart of index.MergeDelta and shares
// its sharing contract: db may alias *Erratum (and *Document) values
// with prev's source database only while they are completely unchanged
// — any modification, including a cluster-key relabel, must clone the
// entry so the stale pointer falls out of the comparison.
//
// A shard is reused when its newly computed sub-database is exactly the
// one it was built over: the same document keys, each carrying the same
// chronological Order as the current snapshot, with pointer-identical
// errata sequences. Everything else — a new or revised document's
// entries hashing onto the shard, entries leaving it because a relabel
// moved them, or an out-of-order document insertion shifting Order
// values — forces an index rebuild of just that shard. Appending
// chronologically recent documents (the common feed case) therefore
// rebuilds only the shards owning the new entries' keys.
//
// The global rank maps are always recomputed (they are positions in the
// full db.Errata()/db.Unique() orderings, which any delta shifts).
// Repartition(nil, ...) and a shard-count change degenerate to a full
// Partition. The second return value is the number of shards rebuilt.
func Repartition(prev *Cluster, db *domain.Database, n int) (*Cluster, int) {
	if n < 1 {
		n = 1
	}
	if prev == nil || prev.N != n {
		return Partition(db, n), n
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
			dc := *d
			dc.Errata = p
			dbs[i].Docs[d.Key] = &dc
		}
	}

	rebuilt := 0
	c.Shards = make([]*Shard, n)
	for i, sdb := range dbs {
		if sameSubDB(prev.Shards[i].DB, sdb) {
			c.Shards[i] = prev.Shards[i]
			continue
		}
		c.Shards[i] = &Shard{ID: i, DB: sdb, IX: index.Build(sdb)}
		rebuilt++
	}
	return c, rebuilt
}

// sameSubDB reports whether a previously built shard sub-database is
// still valid for the freshly computed one: same document keys, same
// Order values (next's copies carry the current snapshot's Order, so a
// shifted document shows up here), pointer-identical errata sequences.
func sameSubDB(prev, next *domain.Database) bool {
	if len(prev.Docs) != len(next.Docs) {
		return false
	}
	for key, nd := range next.Docs {
		pd, ok := prev.Docs[key]
		if !ok || pd.Order != nd.Order || len(pd.Errata) != len(nd.Errata) {
			return false
		}
		for i := range nd.Errata {
			if pd.Errata[i] != nd.Errata[i] {
				return false
			}
		}
	}
	return true
}
