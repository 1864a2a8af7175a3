package store

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf8"

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
// is the invariant everything hangs on: the rows are appended by
// appendDetail, a hand-written encoder of the DTO types below, and
// json.Marshal of those DTOs is its oracle (TestFragmentsMatchMarshal,
// FuzzFragmentRow, the serve-layer equivalence matrix).

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
// ordinal out of range.
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
// entry of db, row i for db.Errata()[i], appended into one buffer. The
// per-entry cost is one append of the detail form, whose prefix is the
// summary form, so a swap amortizes the whole corpus's encoding into one
// pass and the hot path never marshals again. The appender cannot fail,
// so err is always nil.
func BuildFragments(db *domain.Database) (*Fragments, error) {
	errata := db.Errata()
	f := &Fragments{rows: make([][2][]byte, len(errata))}
	f.appendMissing(db, errata)
	return f, nil
}

// BuildFragmentsDelta precomputes the fragments of ix's snapshot from
// prev's, where remap is what index.MergeDelta returned with ix: every
// surviving entry's row is carried over from its previous ordinal, and
// only the rows left empty — the fresh entries' — are appended, into one
// buffer. It honors MergeDelta's sharing contract: a pointer-shared
// entry is completely unchanged, so its row is still canonical. Like
// BuildFragments its error is always nil.
func BuildFragmentsDelta(prev *Fragments, ix *index.Index, remap []int) (*Fragments, error) {
	f := &Fragments{rows: make([][2][]byte, ix.Size())}
	for old, ord := range remap {
		if ord >= 0 {
			f.rows[ord] = [2][]byte{prev.Detail(old), prev.Summary(old)}
		}
	}
	f.appendMissing(ix.Database(), ix.Errata())
	return f, nil
}

// appendMissing fills the rows of f that are still empty, entry
// errata[i] into row i: each entry's detail and then its summary — the
// detail's summary prefix, closed — are appended to one buffer, and the
// rows are cut from it once it has stopped growing. The buffer is sized
// up front from the rows' unescaped text, so it rarely grows at all.
func (f *Fragments) appendMissing(db *domain.Database, errata []*domain.Erratum) {
	size, missing := 0, 0
	for ord, e := range errata {
		if f.rows[ord][summaryCol] == nil {
			size += rowSize(e)
			missing++
		}
	}
	buf := make([]byte, 0, size)
	ends := make([]int, 0, 3*missing) // per row: ordinal, detail end, summary end
	for ord, e := range errata {
		if f.rows[ord][summaryCol] != nil {
			continue
		}
		start := len(buf)
		var n int
		buf, n = appendDetail(buf, db, e)
		detail := len(buf)
		buf = append(append(buf, buf[start:start+n]...), '}')
		ends = append(ends, ord, detail, len(buf))
	}
	start := 0
	for i := 0; i < len(ends); i += 3 {
		ord, detail, end := ends[i], ends[i+1], ends[i+2]
		f.rows[ord] = [2][]byte{buf[start:detail:detail], buf[detail:end:end]}
		start = end
	}
}

// rowSize estimates the bytes of the entry's detail and summary rows:
// their text unescaped, the summary's twice, and room for the field
// names and punctuation.
func rowSize(e *domain.Erratum) int {
	n := 2*(2*len(e.DocKey)+2*len(e.ID)+len(e.Key)+len(e.Title)) +
		len(e.Description) + len(e.Implication) + len(e.Workaround) + len(e.Status) + 400
	for _, k := range domain.Kinds {
		for _, it := range e.Ann.Items(k) {
			n += len(it.Category) + len(it.Concrete) + 32
		}
	}
	for _, m := range e.Ann.MSRs {
		n += len(m) + 3
	}
	return n
}

// appendDetail appends the entry's row, byte for byte
// json.Marshal(DetailOf(db, e)), and returns the length of its summary
// prefix: every ErratumSummary field, up to the "seq" field that opens
// the detail's own, so that the prefix and a closing '}' are
// json.Marshal(Summarize(db, e)). Fields follow the DTOs' declaration
// order and omitempty rules.
func appendDetail(dst []byte, db *domain.Database, e *domain.Erratum) ([]byte, int) {
	start := len(dst)
	// FullID is DocKey + "/" + ID; the ASCII '/' ends any invalid UTF-8
	// run of DocKey, so escaping the halves apart escapes the whole.
	dst = appendEscaped(append(dst, `{"full_id":"`...), e.DocKey)
	dst = append(appendEscaped(append(dst, '/'), e.ID), '"')
	if e.Key != "" {
		dst = appendString(append(dst, `,"key":`...), e.Key)
	}
	dst = appendString(append(dst, `,"doc":`...), e.DocKey)
	dst = appendString(append(dst, `,"id":`...), e.ID)
	vendor := ""
	if d := db.Docs[e.DocKey]; d != nil {
		vendor = d.Vendor.String()
	}
	dst = appendString(append(dst, `,"vendor":`...), vendor)
	dst = appendString(append(dst, `,"title":`...), e.Title)
	if !e.Disclosed.IsZero() {
		// A formatted date holds only digits and '-': nothing to escape.
		dst = append(e.Disclosed.AppendFormat(append(dst, `,"disclosed":"`...), dateFmt), '"')
	}
	summary := len(dst) - start
	dst = strconv.AppendInt(append(dst, `,"seq":`...), int64(e.Seq), 10)
	for _, f := range [...]struct{ name, val string }{
		{`,"description":`, e.Description},
		{`,"implication":`, e.Implication},
		{`,"workaround":`, e.Workaround},
		{`,"status":`, e.Status},
	} {
		if f.val != "" {
			dst = appendString(append(dst, f.name...), f.val)
		}
	}
	dst = appendString(append(dst, `,"workaround_category":`...), e.WorkaroundCat.String())
	dst = appendString(append(dst, `,"fix_status":`...), e.Fix.String())
	dst = appendItems(dst, `,"triggers":`, e.Ann.Triggers)
	dst = appendItems(dst, `,"contexts":`, e.Ann.Contexts)
	dst = appendItems(dst, `,"effects":`, e.Ann.Effects)
	if len(e.Ann.MSRs) > 0 {
		dst = append(dst, `,"msrs":[`...)
		for i, m := range e.Ann.MSRs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, m)
		}
		dst = append(dst, ']')
	}
	if e.Ann.ComplexConditions {
		dst = append(dst, `,"complex_conditions":true`...)
	}
	if e.Ann.SimulationOnly {
		dst = append(dst, `,"simulation_only":true`...)
	}
	return append(dst, '}'), summary
}

// appendItems appends a non-empty item list as the named []ResponseItem
// field, and nothing for an empty one (omitempty).
func appendItems(dst []byte, name string, items []domain.Item) []byte {
	if len(items) == 0 {
		return dst
	}
	dst = append(append(dst, name...), '[')
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"category":`...), it.Category)
		if it.Concrete != "" {
			dst = appendString(append(dst, `,"concrete":`...), it.Concrete)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// htmlSafe marks the bytes json.Marshal copies as they are: ASCII but
// control bytes, '"', '\\' and the HTML characters '<', '>', '&'. A
// byte of a multi-byte UTF-8 sequence is not safe here, so one table
// lookup per byte takes the common path.
var htmlSafe = func() (safe [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal exactly as
// json.Marshal writes it.
func appendString(dst []byte, s string) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// appendEscaped appends the inside of s's JSON string literal with
// json.Marshal's escapes (HTML escaping on): '"' and '\\' behind a
// backslash; \b, \f, \n, \r, \t by name and every other control
// byte, '<', '>' and '&' as \u00XX; each byte of invalid UTF-8 as
// \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if htmlSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
