package shard

import (
	"sync"

	"repro/internal/index"
	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// V2Store is the slice of the store.StoreV2 surface the lazy partition
// needs: per-record document and erratum decoders plus the ownership
// fields readable without decoding. Declared here so shard does not
// import store (serve hands the concrete *store.StoreV2 in).
type V2Store interface {
	NumDocs() int
	Doc(i int) *domain.Document
	DocErrataRange(i int) (off, n int)
	Size() int
	EntryKey(ord int) string
	EntryID(ord int) string
	Erratum(ord int, docKey string) *domain.Erratum
}

// ownerOfEntry is ownerOf for an entry that exists only as a record:
// same hash, same namespaces, computed from the ownership fields alone
// so placement never requires decoding the record.
func ownerOfEntry(key, docKey, id string, n int) int {
	if key != "" {
		return Owner(key, n)
	}
	return Owner("\x00"+docKey+"/"+id, n)
}

// PartitionStore builds an n-shard cluster straight from a FormatVersion
// 2 store, decoding each erratum record exactly once — by the one shard
// that owns it, in parallel across shards — instead of materializing the
// full database first and re-walking it (Partition's path). Document
// metadata is decoded once and shallow-copied per shard exactly like
// Partition; erratum placement reads only the key/ID fields off the
// record, so a shard never touches the bytes of entries it does not
// own. The returned database is the full assembly (every shard's
// entries, in record order) and is what the cluster's rank maps are
// computed from; its errata pointers are shared with the shards.
//
// The store's backing bytes must outlive everything returned: all
// strings alias them.
func PartitionStore(sv V2Store, n int) (*domain.Database, *Cluster, error) {
	if n < 1 {
		n = 1
	}
	nDocs := sv.NumDocs()
	docs := make([]*domain.Document, nDocs)
	for i := 0; i < nDocs; i++ {
		docs[i] = sv.Doc(i)
	}
	// Placement runs over the raw records: one pass, no decoding.
	owner := make([]int32, sv.Size())
	for i := 0; i < nDocs; i++ {
		off, cnt := sv.DocErrataRange(i)
		for j := off; j < off+cnt; j++ {
			owner[j] = int32(ownerOfEntry(sv.EntryKey(j), docs[i].Key, sv.EntryID(j), n))
		}
	}

	// Each shard decodes its owned records into disjoint slots of
	// entries and builds its sub-database and index concurrently. Slot
	// disjointness (every ordinal has exactly one owner) is what makes
	// the parallel writes race-free — and what pins decode-once.
	full := domain.NewDatabase(taxonomy.Base())
	entries := make([]*domain.Erratum, sv.Size())
	shards := make([]*Shard, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sdb := &domain.Database{Docs: make(map[string]*domain.Document), Scheme: full.Scheme}
			for i := 0; i < nDocs; i++ {
				off, cnt := sv.DocErrataRange(i)
				var part []*domain.Erratum
				for j := off; j < off+cnt; j++ {
					if int(owner[j]) != s {
						continue
					}
					e := sv.Erratum(j, docs[i].Key)
					entries[j] = e
					part = append(part, e)
				}
				if len(part) == 0 {
					continue
				}
				dc := *docs[i]
				dc.Errata = part
				sdb.Docs[dc.Key] = &dc
			}
			shards[s] = &Shard{ID: s, DB: sdb, IX: index.Build(sdb)}
		}(s)
	}
	wg.Wait()

	for i := 0; i < nDocs; i++ {
		off, cnt := sv.DocErrataRange(i)
		docs[i].Errata = entries[off : off+cnt]
		if err := full.Add(docs[i]); err != nil {
			return nil, nil, err
		}
	}
	if err := full.Validate(); err != nil {
		return nil, nil, err
	}

	all := full.Errata()
	uniq := full.Unique()
	c := &Cluster{
		N:          n,
		Shards:     shards,
		allRank:    make(map[*domain.Erratum]int, len(all)),
		uniqueRank: make(map[*domain.Erratum]int, len(uniq)),
	}
	for i, e := range all {
		c.allRank[e] = i
	}
	for i, e := range uniq {
		c.uniqueRank[e] = i
	}
	return full, c, nil
}
