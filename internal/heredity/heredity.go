// Package heredity studies bugs shared across designs (Section IV-B2 of
// the paper): the shared-errata matrix (Figure 3), disclosure traces of
// shared bug sets (Figure 4), and forward-/backward-latent errata
// (Figure 5). Deduplication and disclosure inference must have run.
package heredity

import (
	"sort"
	"time"

	"repro/pkg/domain"
)

// Matrix is the shared-errata matrix of one vendor: Counts[i][j] is the
// number of unique keys occurring in both documents i and j (diagonal:
// the document's unique key count). Docs gives the document keys in
// order.
type Matrix struct {
	Docs   []string
	Labels []string
	Counts [][]int
}

// SharedMatrix computes the heredity matrix for a vendor (Figure 3).
func SharedMatrix(db *domain.Database, v domain.Vendor) *Matrix {
	docs := db.VendorDocuments(v)
	m := &Matrix{}
	keySets := make([]map[string]bool, len(docs))
	for i, d := range docs {
		m.Docs = append(m.Docs, d.Key)
		m.Labels = append(m.Labels, d.Label)
		set := make(map[string]bool)
		for _, e := range d.Errata {
			if e.Key != "" {
				set[e.Key] = true
			}
		}
		keySets[i] = set
	}
	m.Counts = make([][]int, len(docs))
	for i := range docs {
		m.Counts[i] = make([]int, len(docs))
		for j := range docs {
			n := 0
			small, large := keySets[i], keySets[j]
			if len(large) < len(small) {
				small, large = large, small
			}
			for k := range small {
				if large[k] {
					n++
				}
			}
			m.Counts[i][j] = n
		}
	}
	return m
}

// SharedKeys returns the unique keys present in every one of the given
// documents, sorted.
func SharedKeys(db *domain.Database, docKeys ...string) []string {
	if len(docKeys) == 0 {
		return nil
	}
	count := make(map[string]int)
	for _, dk := range docKeys {
		d := db.Docs[dk]
		if d == nil {
			return nil
		}
		seen := make(map[string]bool)
		for _, e := range d.Errata {
			if e.Key != "" && !seen[e.Key] {
				seen[e.Key] = true
				count[e.Key]++
			}
		}
	}
	var out []string
	for k, c := range count {
		if c == len(docKeys) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Trace is the disclosure trace of a set of shared bugs in one document
// (one curve of Figure 4).
type Trace struct {
	DocKey   string
	Label    string
	Released time.Time
	// Dates lists the disclosure dates of the shared keys in this
	// document, ascending.
	Dates []time.Time
}

// DisclosureTraces returns, per document, when the given shared keys
// were disclosed there (Figure 4: the bugs shared by Intel generations
// 6 to 10).
func DisclosureTraces(db *domain.Database, keys []string, docKeys ...string) []Trace {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	var out []Trace
	for _, dk := range docKeys {
		d := db.Docs[dk]
		if d == nil {
			continue
		}
		tr := Trace{DocKey: d.Key, Label: d.Label, Released: d.Released}
		seen := make(map[string]bool)
		for _, e := range d.Errata {
			if want[e.Key] && !seen[e.Key] && !e.Disclosed.IsZero() {
				seen[e.Key] = true
				tr.Dates = append(tr.Dates, e.Disclosed)
			}
		}
		sort.Slice(tr.Dates, func(i, j int) bool { return tr.Dates[i].Before(tr.Dates[j]) })
		out = append(out, tr)
	}
	return out
}

// LatentPoint is one point of the forward-/backward-latent curves.
type LatentPoint struct {
	Date       time.Time
	Cumulative int
}

// LatencyResult holds the Figure 5 series.
type LatencyResult struct {
	// Forward is the cumulative count of forward-latent errata: an
	// erratum reported in one design and strictly later reported in a
	// later design, accumulated at the date of the later report.
	Forward []LatentPoint
	// Backward is the cumulative count of backward-latent errata: an
	// erratum reported in a design strictly before being reported in an
	// earlier design.
	Backward []LatentPoint
	// ForwardTotal and BackwardTotal are the final counts.
	ForwardTotal  int
	BackwardTotal int
}

// firstReport is the earliest disclosure of a key in one document.
type firstReport struct {
	order int
	date  time.Time
}

// ForwardBackwardLatent computes the Figure 5 curves for a vendor
// (the paper evaluates Intel; AMD lacks chronological data).
func ForwardBackwardLatent(db *domain.Database, v domain.Vendor) *LatencyResult {
	// First report of each key per document.
	reports := make(map[string][]firstReport)
	for _, d := range db.VendorDocuments(v) {
		seen := make(map[string]bool)
		for _, e := range d.Errata {
			if e.Key == "" || e.Disclosed.IsZero() || seen[e.Key] {
				continue
			}
			seen[e.Key] = true
			reports[e.Key] = append(reports[e.Key], firstReport{order: d.Order, date: e.Disclosed})
		}
	}

	var fwdDates, bwdDates []time.Time
	keys := make([]string, 0, len(reports))
	for k := range reports {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rs := reports[k]
		if len(rs) < 2 {
			continue
		}
		forward, backward := false, false
		var fwdAt, bwdAt time.Time
		for i := 0; i < len(rs); i++ {
			for j := 0; j < len(rs); j++ {
				if rs[j].order > rs[i].order && rs[j].date.After(rs[i].date) {
					// Reported in design i, later reported in a later design j.
					if !forward || rs[j].date.Before(fwdAt) {
						forward, fwdAt = true, rs[j].date
					}
				}
				if rs[j].order < rs[i].order && rs[j].date.After(rs[i].date) {
					// Reported in design i, later reported in an earlier design j.
					if !backward || rs[j].date.Before(bwdAt) {
						backward, bwdAt = true, rs[j].date
					}
				}
			}
		}
		if forward {
			fwdDates = append(fwdDates, fwdAt)
		}
		if backward {
			bwdDates = append(bwdDates, bwdAt)
		}
	}

	res := &LatencyResult{
		Forward:       cumulate(fwdDates),
		Backward:      cumulate(bwdDates),
		ForwardTotal:  len(fwdDates),
		BackwardTotal: len(bwdDates),
	}
	return res
}

func cumulate(dates []time.Time) []LatentPoint {
	sort.Slice(dates, func(i, j int) bool { return dates[i].Before(dates[j]) })
	var out []LatentPoint
	for i, t := range dates {
		if len(out) > 0 && out[len(out)-1].Date.Equal(t) {
			out[len(out)-1].Cumulative = i + 1
			continue
		}
		out = append(out, LatentPoint{Date: t, Cumulative: i + 1})
	}
	return out
}

// Lineage summarizes the document span of one unique key.
type Lineage struct {
	Key     string
	Docs    []string
	GenSpan int // generation distance between first and last Intel doc
}

// LongestLineages returns the unique keys spanning the most Intel
// generations, longest first (Observation O3: bugs stay for up to 11
// generations).
func LongestLineages(db *domain.Database, limit int) []Lineage {
	byKey := make(map[string][]*domain.Document)
	for _, d := range db.VendorDocuments(domain.Intel) {
		seen := make(map[string]bool)
		for _, e := range d.Errata {
			if e.Key != "" && !seen[e.Key] {
				seen[e.Key] = true
				byKey[e.Key] = append(byKey[e.Key], d)
			}
		}
	}
	var out []Lineage
	for k, docs := range byKey {
		minGen, maxGen := docs[0].GenIndex, docs[0].GenIndex
		var dks []string
		for _, d := range docs {
			if d.GenIndex < minGen {
				minGen = d.GenIndex
			}
			if d.GenIndex > maxGen {
				maxGen = d.GenIndex
			}
			dks = append(dks, d.Key)
		}
		out = append(out, Lineage{Key: k, Docs: dks, GenSpan: maxGen - minGen})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GenSpan != out[j].GenSpan {
			return out[i].GenSpan > out[j].GenSpan
		}
		if len(out[i].Docs) != len(out[j].Docs) {
			return len(out[i].Docs) > len(out[j].Docs)
		}
		return out[i].Key < out[j].Key
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// KnownBeforeNextRelease reports, for a set of shared keys, how many
// were disclosed in an earlier-generation document before the release
// date of the given later document (Observation O4).
func KnownBeforeNextRelease(db *domain.Database, keys []string, earlierDoc, laterDoc string) int {
	earlier := db.Docs[earlierDoc]
	later := db.Docs[laterDoc]
	if earlier == nil || later == nil {
		return 0
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	n := 0
	seen := make(map[string]bool)
	for _, e := range earlier.Errata {
		if want[e.Key] && !seen[e.Key] && !e.Disclosed.IsZero() && e.Disclosed.Before(later.Released) {
			seen[e.Key] = true
			n++
		}
	}
	return n
}
