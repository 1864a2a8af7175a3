package store

import (
	"encoding/json"

	"repro/pkg/domain"
)

// This file defines the canonical per-erratum response representation
// shared by the serving layer and the FormatVersion 2 store. The hot
// read path in internal/serve stitches whole /v1 responses out of these
// precomputed fragments with a pooled buffer instead of running
// encoding/json per request, and the v2 store persists the fragment
// bytes alongside the records so a served file needs no marshaling at
// all. Byte-for-byte equivalence with the reflective json.Marshal path
// is the invariant everything hangs on: both paths marshal the same DTO
// types below, and the serve-layer equivalence matrix pins the result.

// ResponseItem is one annotation item as served by the /v1 API.
type ResponseItem struct {
	Category string `json:"category"`
	Concrete string `json:"concrete,omitempty"`
}

// ErratumSummary is the /v1/errata list-row representation.
type ErratumSummary struct {
	FullID    string `json:"full_id"`
	Key       string `json:"key,omitempty"`
	Doc       string `json:"doc"`
	ID        string `json:"id"`
	Vendor    string `json:"vendor"`
	Title     string `json:"title"`
	Disclosed string `json:"disclosed,omitempty"`
}

// ErratumDetail is the /v1/errata/{key} per-occurrence representation.
type ErratumDetail struct {
	ErratumSummary
	Seq         int            `json:"seq"`
	Description string         `json:"description,omitempty"`
	Implication string         `json:"implication,omitempty"`
	Workaround  string         `json:"workaround,omitempty"`
	Status      string         `json:"status,omitempty"`
	WorkCat     string         `json:"workaround_category"`
	Fix         string         `json:"fix_status"`
	Triggers    []ResponseItem `json:"triggers,omitempty"`
	Contexts    []ResponseItem `json:"contexts,omitempty"`
	Effects     []ResponseItem `json:"effects,omitempty"`
	MSRs        []string       `json:"msrs,omitempty"`
	Complex     bool           `json:"complex_conditions,omitempty"`
	SimOnly     bool           `json:"simulation_only,omitempty"`
}

// Summarize builds the canonical list-row representation of an entry.
func Summarize(db *domain.Database, e *domain.Erratum) ErratumSummary {
	sum := ErratumSummary{
		FullID: e.FullID(),
		Key:    e.Key,
		Doc:    e.DocKey,
		ID:     e.ID,
		Title:  e.Title,
	}
	if d := db.Docs[e.DocKey]; d != nil {
		sum.Vendor = d.Vendor.String()
	}
	if !e.Disclosed.IsZero() {
		sum.Disclosed = e.Disclosed.Format(dateFmt)
	}
	return sum
}

// DetailOf builds the canonical per-occurrence representation.
func DetailOf(db *domain.Database, e *domain.Erratum) ErratumDetail {
	return ErratumDetail{
		ErratumSummary: Summarize(db, e),
		Seq:            e.Seq,
		Description:    e.Description,
		Implication:    e.Implication,
		Workaround:     e.Workaround,
		Status:         e.Status,
		WorkCat:        e.WorkaroundCat.String(),
		Fix:            e.Fix.String(),
		Triggers:       toResponseItems(e.Ann.Triggers),
		Contexts:       toResponseItems(e.Ann.Contexts),
		Effects:        toResponseItems(e.Ann.Effects),
		MSRs:           e.Ann.MSRs,
		Complex:        e.Ann.ComplexConditions,
		SimOnly:        e.Ann.SimulationOnly,
	}
}

func toResponseItems(items []domain.Item) []ResponseItem {
	out := make([]ResponseItem, 0, len(items))
	for _, it := range items {
		out = append(out, ResponseItem{Category: it.Category, Concrete: it.Concrete})
	}
	return out
}

// Fragments holds the precomputed canonical JSON fragments of one
// database snapshot: per entry the marshaled ErratumDetail and
// ErratumSummary bytes, plus the JSON string literal of every cluster
// key. Lookups are pointer-keyed (entries are immutable while served)
// and allocation-free, so the serving layer can stitch whole responses
// without touching encoding/json. A nil *Fragments is valid and answers
// nil for everything.
type Fragments struct {
	details   map[*domain.Erratum][]byte
	summaries map[*domain.Erratum][]byte
	keys      map[string][]byte
}

// Detail returns the marshaled ErratumDetail bytes of e, or nil when
// unknown. The returned slice is shared and must not be modified.
func (f *Fragments) Detail(e *domain.Erratum) []byte {
	if f == nil {
		return nil
	}
	return f.details[e]
}

// Summary returns the marshaled ErratumSummary bytes of e, or nil when
// unknown. The returned slice is shared and must not be modified.
func (f *Fragments) Summary(e *domain.Erratum) []byte {
	if f == nil {
		return nil
	}
	return f.summaries[e]
}

// KeyJSON returns the JSON string literal (quotes and escapes included)
// of a cluster key present in the snapshot, or nil for unknown keys.
func (f *Fragments) KeyJSON(key string) []byte {
	if f == nil {
		return nil
	}
	return f.keys[key]
}

func newFragments(n int) *Fragments {
	return &Fragments{
		details:   make(map[*domain.Erratum][]byte, n),
		summaries: make(map[*domain.Erratum][]byte, n),
		keys:      make(map[string][]byte),
	}
}

// BuildFragments precomputes the canonical response fragments for every
// entry of db. The per-entry cost is one json.Marshal each for the
// detail and summary forms — the same work a single uncached request
// pair used to pay — so a swap amortizes the whole corpus's marshaling
// into one pass and the hot path never marshals again.
//
// The result is never nil: it holds the fragments of every entry that
// marshaled, and err reports the first entry that did not. An entry
// without fragments is simply absent from the lookups.
func BuildFragments(db *domain.Database) (*Fragments, error) {
	return BuildFragmentsDelta(nil, db)
}

// BuildFragmentsDelta precomputes fragments for db, reusing the bytes
// of every entry shared by pointer with prev. It honors the same
// sharing contract as index.MergeDelta: a pointer-shared entry is
// completely unchanged, so its fragments are still canonical. With a
// nil prev it is BuildFragments. Like BuildFragments it returns every
// fragment it could build together with the first error.
func BuildFragmentsDelta(prev *Fragments, db *domain.Database) (*Fragments, error) {
	errata := db.Errata()
	f := newFragments(len(errata))
	var first error
	for _, e := range errata {
		if d := prev.Detail(e); d != nil {
			f.details[e] = d
			f.summaries[e] = prev.summaries[e]
			if kj := prev.KeyJSON(e.Key); kj != nil {
				f.keys[e.Key] = kj
			} else if err := f.addKey(e.Key); err != nil && first == nil {
				first = err
			}
			continue
		}
		if err := f.add(db, e); err != nil && first == nil {
			first = err
		}
	}
	return f, first
}

func (f *Fragments) add(db *domain.Database, e *domain.Erratum) error {
	detail, err := json.Marshal(DetailOf(db, e))
	if err != nil {
		return err
	}
	summary, err := json.Marshal(Summarize(db, e))
	if err != nil {
		return err
	}
	f.details[e] = detail
	f.summaries[e] = summary
	return f.addKey(e.Key)
}

// addKey records the JSON literal of a non-empty cluster key once.
func (f *Fragments) addKey(key string) error {
	if key == "" {
		return nil
	}
	if _, ok := f.keys[key]; ok {
		return nil
	}
	kj, err := json.Marshal(key)
	if err != nil {
		return err
	}
	f.keys[key] = kj
	return nil
}
