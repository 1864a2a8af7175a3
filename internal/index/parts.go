package index

import "repro/pkg/domain"

// KeyList returns the postings list of ordinals bearing the given
// cluster key, absent keys yielding a nil List. The list is shared with
// the index and must be treated as read-only; unlike ByKey it performs
// no allocation, which the serving layer's fragment-stitched point
// lookup relies on.
func (ix *Index) KeyList(key string) List { return ix.byKey.Get(key) }

// Errata returns the indexed entries by ordinal, in db.Errata() order.
// The slice is shared with the index and must be treated as read-only.
func (ix *Index) Errata() []*domain.Erratum { return ix.errata }

// Entry returns the entry at the given ordinal. The ordinal must come
// from this index's postings (KeyList or query results).
func (ix *Index) Entry(ord int) *domain.Erratum { return ix.errata[ord] }
