// Package timeline infers erratum disclosure dates (Section IV-B1 of
// the paper). Bug discoveries are not timestamped, so each erratum's
// disclosure is approximated by the date of the document revision that
// first added it. When the revision summary does not say (a document
// error the paper found on 12 errata), the sequential numbering of
// errata is exploited: the erratum is assumed to have been added
// together with the subsequent erratum whose revision is known.
package timeline

import (
	"sort"
	"time"

	"repro/pkg/domain"
)

// Options configures the inference.
type Options struct {
	// Interpolate enables sequential-number interpolation for errata
	// missing from the revision notes. When disabled, such errata get
	// the document's first revision date (the conservative fallback).
	// The ablation benchmarks compare both settings.
	Interpolate bool
}

// DefaultOptions enables interpolation, as in the paper.
func DefaultOptions() Options { return Options{Interpolate: true} }

// Stats reports an inference run.
type Stats struct {
	// Dated is the number of errata dated directly from revision notes.
	Dated int
	// Interpolated is the number dated via sequential-number
	// interpolation.
	Interpolated int
	// Fallback is the number dated with the first-revision fallback.
	Fallback int
}

// InferDisclosures sets Erratum.Disclosed for every entry of the
// database and returns inference statistics.
func InferDisclosures(db *domain.Database, opts Options) Stats {
	var st Stats
	for _, d := range db.Documents() {
		inferDocument(d, opts, &st)
	}
	return st
}

func inferDocument(d *domain.Document, opts Options, st *Stats) {
	if len(d.Errata) == 0 {
		return
	}
	revDate := make(map[int]time.Time, len(d.Revisions))
	var first time.Time
	for i, r := range d.Revisions {
		revDate[r.Number] = r.Date
		if i == 0 || r.Date.Before(first) {
			first = r.Date
		}
	}

	// First pass: direct dates.
	known := make([]bool, len(d.Errata))
	for i, e := range d.Errata {
		if t, ok := revDate[e.AddedIn]; ok && e.AddedIn > 0 {
			e.Disclosed = t
			known[i] = true
			st.Dated++
		}
	}

	// Second pass: interpolation. Errata are sequentially numbered, so
	// an erratum missing from the notes was added no later than the next
	// erratum with a known revision.
	for i, e := range d.Errata {
		if known[i] {
			continue
		}
		if opts.Interpolate {
			if t, ok := nextKnown(d, known, i); ok {
				e.Disclosed = t
				st.Interpolated++
				continue
			}
			if t, ok := prevKnown(d, known, i); ok {
				e.Disclosed = t
				st.Interpolated++
				continue
			}
		}
		e.Disclosed = first
		st.Fallback++
	}
}

func nextKnown(d *domain.Document, known []bool, i int) (time.Time, bool) {
	for j := i + 1; j < len(d.Errata); j++ {
		if known[j] {
			return d.Errata[j].Disclosed, true
		}
	}
	return time.Time{}, false
}

func prevKnown(d *domain.Document, known []bool, i int) (time.Time, bool) {
	for j := i - 1; j >= 0; j-- {
		if known[j] {
			return d.Errata[j].Disclosed, true
		}
	}
	return time.Time{}, false
}

// SeriesPoint is one point of a cumulative disclosure curve.
type SeriesPoint struct {
	Date       time.Time
	Cumulative int
}

// CumulativeByDocument computes, per document, the cumulative number of
// disclosed errata over time (Figure 2). Duplicate entries are counted
// individually, as in the paper. InferDisclosures must have run.
func CumulativeByDocument(db *domain.Database) map[string][]SeriesPoint {
	out := make(map[string][]SeriesPoint, len(db.Docs))
	for _, d := range db.Documents() {
		out[d.Key] = cumulative(d.Errata)
	}
	return out
}

// cumulative builds a step series from entries' disclosure dates.
func cumulative(errata []*domain.Erratum) []SeriesPoint {
	dates := make([]time.Time, 0, len(errata))
	for _, e := range errata {
		if !e.Disclosed.IsZero() {
			dates = append(dates, e.Disclosed)
		}
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i].Before(dates[j]) })
	var out []SeriesPoint
	for i, t := range dates {
		if len(out) > 0 && out[len(out)-1].Date.Equal(t) {
			out[len(out)-1].Cumulative = i + 1
			continue
		}
		out = append(out, SeriesPoint{Date: t, Cumulative: i + 1})
	}
	return out
}

// Concavity measures how concave a cumulative curve is (Observation
// O2): it returns the fraction of the total count disclosed in the
// first half of the curve's time span. Values above 0.5 indicate a
// concave (decelerating) curve.
func Concavity(series []SeriesPoint) float64 {
	if len(series) < 2 {
		return 1
	}
	start := series[0].Date
	end := series[len(series)-1].Date
	if !end.After(start) {
		return 1
	}
	mid := start.Add(end.Sub(start) / 2)
	total := series[len(series)-1].Cumulative
	atMid := 0
	for _, p := range series {
		if p.Date.After(mid) {
			break
		}
		atMid = p.Cumulative
	}
	return float64(atMid) / float64(total)
}
