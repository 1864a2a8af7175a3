package shard

import (
	"bytes"
	"testing"

	"repro/pkg/domain"
)

// clusterDump renders a cluster's full state for structural comparison:
// per-shard index dumps plus the global rank orderings.
func clusterDump(c *Cluster) []byte {
	var b bytes.Buffer
	for _, sh := range c.Shards {
		b.WriteString("shard\n")
		b.Write(sh.IX.DebugDump())
	}
	return b.Bytes()
}

func sameRanks(a, b *Cluster) bool {
	if len(a.allRank) != len(b.allRank) || len(a.uniqueRank) != len(b.uniqueRank) {
		return false
	}
	for e, r := range a.allRank {
		if b.allRank[e] != r {
			return false
		}
	}
	for e, r := range a.uniqueRank {
		if b.uniqueRank[e] != r {
			return false
		}
	}
	return true
}

// deltaOf returns a database sharing every document pointer with db
// except the dropped keys — the shape ingest's copy-on-write Apply
// produces for a pure deletion.
func deltaOf(db *domain.Database, drop ...string) *domain.Database {
	next := &domain.Database{Docs: make(map[string]*domain.Document), Scheme: db.Scheme}
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

// TestRepartitionEqualsPartition pins the correctness half: for
// identity, deletion and nil-prev deltas, Repartition lands on a
// cluster structurally identical to a cold Partition at 1, 4 and 16
// shards.
func TestRepartitionEqualsPartition(t *testing.T) {
	db := testDB(t, 1)
	for _, n := range []int{1, 4, 16} {
		prev := Partition(db, n)

		got, rebuilt := Repartition(nil, db, n)
		if rebuilt != n {
			t.Fatalf("n=%d: nil prev rebuilt %d shards, want %d", n, rebuilt, n)
		}
		if !bytes.Equal(clusterDump(got), clusterDump(prev)) || !sameRanks(got, prev) {
			t.Fatalf("n=%d: Repartition(nil) differs from Partition", n)
		}

		same := deltaOf(db)
		got, rebuilt = Repartition(prev, same, n)
		if rebuilt != 0 {
			t.Fatalf("n=%d: identity delta rebuilt %d shards, want 0", n, rebuilt)
		}
		for i := range got.Shards {
			if got.Shards[i] != prev.Shards[i] {
				t.Fatalf("n=%d: identity delta replaced shard %d", n, i)
			}
		}
		if !sameRanks(got, Partition(same, n)) {
			t.Fatalf("n=%d: identity delta ranks differ from cold Partition", n)
		}

		// Drop one document; the cold and incremental clusters must agree.
		victim := db.Documents()[0].Key
		next := deltaOf(db, victim)
		got, rebuilt = Repartition(prev, next, n)
		cold := Partition(next, n)
		if !bytes.Equal(clusterDump(got), clusterDump(cold)) || !sameRanks(got, cold) {
			t.Fatalf("n=%d: deletion delta differs from cold Partition", n)
		}
		if rebuilt == 0 || rebuilt > n {
			t.Fatalf("n=%d: deletion delta rebuilt %d shards", n, rebuilt)
		}
	}
}

// TestRepartitionReusesUntouchedShards pins the efficiency half: a
// delta confined to one dedup key rebuilds only the shard owning it,
// and every other shard is reused by pointer.
func TestRepartitionReusesUntouchedShards(t *testing.T) {
	db := testDB(t, 2)
	const n = 16
	prev := Partition(db, n)

	// Clone one document with its first entry's annotation-preserving
	// copy (same key, same content — but a fresh pointer, as a revision
	// would produce), leaving all other documents shared.
	var victim *domain.Document
	for _, d := range db.Documents() {
		if len(d.Errata) > 0 {
			victim = d
			break
		}
	}
	next := deltaOf(db)
	dc := *victim
	dc.Errata = append([]*domain.Erratum(nil), victim.Errata...)
	dc.Errata[0] = victim.Errata[0].Clone()
	next.Docs[victim.Key] = &dc

	got, rebuilt := Repartition(prev, next, n)
	touched := map[int]bool{ownerOf(victim.Errata[0], n): true}
	if rebuilt != len(touched) {
		t.Fatalf("rebuilt %d shards, want %d", rebuilt, len(touched))
	}
	for i := range got.Shards {
		if touched[i] {
			if got.Shards[i] == prev.Shards[i] {
				t.Fatalf("shard %d owns the revised key but was reused", i)
			}
			continue
		}
		if got.Shards[i] != prev.Shards[i] {
			t.Fatalf("shard %d untouched by the delta but rebuilt", i)
		}
	}
	cold := Partition(next, n)
	if !bytes.Equal(clusterDump(got), clusterDump(cold)) || !sameRanks(got, cold) {
		t.Fatalf("revision delta differs from cold Partition")
	}
}

// TestRepartitionShardCountChange pins the degenerate case: changing
// the shard count repartitions from scratch.
func TestRepartitionShardCountChange(t *testing.T) {
	db := testDB(t, 1)
	prev := Partition(db, 4)
	got, rebuilt := Repartition(prev, deltaOf(db), 8)
	if rebuilt != 8 {
		t.Fatalf("count change rebuilt %d shards, want 8", rebuilt)
	}
	cold := Partition(db, 8)
	if !bytes.Equal(clusterDump(got), clusterDump(cold)) || !sameRanks(got, cold) {
		t.Fatalf("count change differs from cold Partition")
	}
}
