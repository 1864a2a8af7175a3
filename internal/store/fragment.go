package store

import (
	"bytes"
	"encoding/json"
	"errors"

	"repro/internal/index"
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

// ResponseItem is one annotation item as served by the /v1 API and as
// stored in a FormatVersion 1 file.
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
		Triggers:       toItems(e.Ann.Triggers),
		Contexts:       toItems(e.Ann.Contexts),
		Effects:        toItems(e.Ann.Effects),
		MSRs:           e.Ann.MSRs,
		Complex:        e.Ann.ComplexConditions,
		SimOnly:        e.Ann.SimulationOnly,
	}
}

// Fragments holds the precomputed canonical JSON fragments of one
// database snapshot as per-ordinal rows aligned with index.Index's
// ordinals (db.Errata() order): per entry the marshaled ErratumDetail
// and ErratumSummary bytes, and the JSON literal of its cluster key as
// a view into the summary. Rows are read by ordinal without allocating,
// so the serving layer stitches whole responses from the ordinals its
// index yields without touching encoding/json. The rows either live in
// the heap (BuildFragments, BuildFragmentsDelta) or are read in place
// from a FormatVersion 2 file's FRAGS and FRAGIDX sections. A nil or
// zero *Fragments is valid and answers nil for everything, as does an
// ordinal out of range or an entry whose DTO failed to marshal.
type Fragments struct {
	rows [][2][]byte // heap rows: detail, summary
	// frags and idx are a v2 file's FRAGS and FRAGIDX sections; when
	// idx is set, row i is its 16-byte FRAGIDX entry instead of rows[i].
	frags, idx []byte
}

// Columns of a fragment row, in FRAGIDX entry order.
const (
	detailCol  = 0
	summaryCol = 1
)

// Len returns the number of rows.
func (f *Fragments) Len() int {
	switch {
	case f == nil:
		return 0
	case f.idx != nil:
		return len(f.idx) / fragIdxSize
	default:
		return len(f.rows)
	}
}

func (f *Fragments) cell(ord, col int) []byte {
	switch {
	case ord < 0 || ord >= f.Len():
		return nil
	case f.idx != nil:
		b := ord*fragIdxSize + col*8
		off, ln := gu32(f.idx, b), gu32(f.idx, b+4)
		return f.frags[off : off+ln : off+ln]
	default:
		return f.rows[ord][col]
	}
}

// Detail returns the marshaled ErratumDetail bytes of the entry at ord,
// or nil. The returned slice is shared and must not be modified.
func (f *Fragments) Detail(ord int) []byte { return f.cell(ord, detailCol) }

// Summary returns the marshaled ErratumSummary bytes of the entry at
// ord, or nil. The returned slice is shared and must not be modified.
func (f *Fragments) Summary(ord int) []byte { return f.cell(ord, summaryCol) }

// KeyJSON returns the JSON string literal (quotes and escapes included)
// of the cluster key of the entry at ord, or nil when the entry has no
// key or no summary. An ErratumSummary marshals full_id first and key
// second, so the literal is sliced out of the summary row. The returned
// slice is shared and must not be modified.
func (f *Fragments) KeyJSON(ord int) []byte {
	const head, keyField = `{"full_id":`, `,"key":`
	rest, ok := bytes.CutPrefix(f.Summary(ord), []byte(head))
	if !ok {
		return nil
	}
	n := jsonStringLen(rest)
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(keyField)); !ok || n == 0 {
		return nil
	}
	if n = jsonStringLen(rest); n == 0 {
		return nil
	}
	return rest[:n:n]
}

// jsonStringLen returns the length of the JSON string literal b starts
// with, or 0 when b does not start with a complete one. Inside a
// literal every '"' is escaped, so the first unescaped one closes it.
func jsonStringLen(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return 0
	}
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return 0
}

// BuildFragments precomputes the canonical response fragments for every
// entry of db, row i for db.Errata()[i]. The per-entry cost is one
// json.Marshal of the detail form, whose prefix is the summary form —
// less than a single uncached request pair used to pay — so a swap
// amortizes the whole corpus's marshaling into one pass and the hot
// path never marshals again.
//
// The result is never nil: it holds the rows of every entry that
// marshaled, and err reports the first entry that did not. An entry
// whose DTO failed to marshal has a nil row.
func BuildFragments(db *domain.Database) (*Fragments, error) {
	errata := db.Errata()
	f := &Fragments{rows: make([][2][]byte, len(errata))}
	return f, f.marshalMissing(db, errata)
}

// BuildFragmentsDelta precomputes the fragments of ix's snapshot from
// prev's, where remap is what index.MergeDelta returned with ix: every
// surviving entry's row is carried over from its previous ordinal, and
// only the rows left empty are marshaled: the fresh entries' (and a
// survivor's whose DTO never marshaled, which fails again). It
// honors MergeDelta's sharing contract: a pointer-shared entry is
// completely unchanged, so its row is still canonical. Like
// BuildFragments it returns every row it could build together with the
// first error.
func BuildFragmentsDelta(prev *Fragments, ix *index.Index, remap []int) (*Fragments, error) {
	f := &Fragments{rows: make([][2][]byte, ix.Size())}
	for old, ord := range remap {
		if ord >= 0 {
			f.rows[ord] = [2][]byte{prev.Detail(old), prev.Summary(old)}
		}
	}
	return f, f.marshalMissing(ix.Database(), ix.Errata())
}

// marshalMissing marshals the rows of f that are still empty, entry
// errata[i] into row i, and returns the first error.
func (f *Fragments) marshalMissing(db *domain.Database, errata []*domain.Erratum) error {
	var first error
	for ord, e := range errata {
		if f.rows[ord][summaryCol] != nil {
			continue
		}
		if err := f.marshalRow(ord, db, e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// seqField opens the first ErratumDetail field after its embedded
// summary. Seq has no omitempty, and an encoded string holds no
// unescaped '"', so its first occurrence ends the summary's fields.
var seqField = []byte(`,"seq":`)

// marshalRow marshals the entry's detail once; its summary row is the
// detail's bytes up to seqField, closed.
func (f *Fragments) marshalRow(ord int, db *domain.Database, e *domain.Erratum) error {
	detail, err := json.Marshal(DetailOf(db, e))
	if err != nil {
		return err
	}
	n := bytes.Index(detail, seqField)
	if n < 0 {
		return errors.New("store: detail fragment has no seq field")
	}
	summary := make([]byte, n+1)
	summary[copy(summary, detail[:n])] = '}'
	f.rows[ord] = [2][]byte{detail, summary}
	return nil
}
