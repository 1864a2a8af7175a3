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
// nil for everything, which the serve layer treats as "fall back to
// json.Marshal".
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

// BuildFragments precomputes the canonical response fragments for every
// entry of db. The per-entry cost is one json.Marshal each for the
// detail and summary forms — the same work a single uncached request
// pair used to pay — so a swap amortizes the whole corpus's marshaling
// into one pass and the hot path never marshals again.
func BuildFragments(db *domain.Database) (*Fragments, error) {
	f := &Fragments{
		details:   make(map[*domain.Erratum][]byte),
		summaries: make(map[*domain.Erratum][]byte),
		keys:      make(map[string][]byte),
	}
	for _, e := range db.Errata() {
		if err := f.add(db, e); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// BuildFragmentsDelta precomputes fragments for db, reusing the bytes
// of every entry shared by pointer with prev. It honors the same
// sharing contract as index.MergeDelta: a pointer-shared entry is
// completely unchanged, so its fragments are still canonical. With a
// nil prev it degrades to BuildFragments.
func BuildFragmentsDelta(prev *Fragments, db *domain.Database) (*Fragments, error) {
	if prev == nil {
		return BuildFragments(db)
	}
	f := &Fragments{
		details:   make(map[*domain.Erratum][]byte),
		summaries: make(map[*domain.Erratum][]byte),
		keys:      make(map[string][]byte),
	}
	for _, e := range db.Errata() {
		if d, ok := prev.details[e]; ok {
			f.details[e] = d
			f.summaries[e] = prev.summaries[e]
			if e.Key != "" {
				if kj, ok := prev.keys[e.Key]; ok {
					f.keys[e.Key] = kj
					continue
				}
			} else {
				continue
			}
			kj, err := json.Marshal(e.Key)
			if err != nil {
				return nil, err
			}
			f.keys[e.Key] = kj
			continue
		}
		if err := f.add(db, e); err != nil {
			return nil, err
		}
	}
	return f, nil
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
	if e.Key != "" {
		if _, ok := f.keys[e.Key]; !ok {
			kj, err := json.Marshal(e.Key)
			if err != nil {
				return err
			}
			f.keys[e.Key] = kj
		}
	}
	return nil
}
