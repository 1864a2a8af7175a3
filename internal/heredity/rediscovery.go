package heredity

import (
	"repro/pkg/domain"
)

// Rediscovery reports, for one document, how many of its bugs were
// inherited from earlier designs, and how many of those were already
// disclosed somewhere before this design was released — the paper's
// rediscovery question (Section IV-B2): are transmitted bugs
// rediscovered, or carried over knowingly?
type Rediscovery struct {
	DocKey string
	Label  string
	// Keys is the number of distinct bugs in the document.
	Keys int
	// Inherited is the number of its bugs that also occur in an
	// earlier-ordered document of the same vendor.
	Inherited int
	// KnownAtRelease is the number of inherited bugs already disclosed
	// in an earlier document before this document's release date.
	KnownAtRelease int
}

// KnownFraction is KnownAtRelease/Inherited (0 when nothing inherited).
func (r Rediscovery) KnownFraction() float64 {
	if r.Inherited == 0 {
		return 0
	}
	return float64(r.KnownAtRelease) / float64(r.Inherited)
}

// RediscoveryStats computes the rediscovery table for a vendor. It
// requires deduplication and disclosure inference to have run.
func RediscoveryStats(db *domain.Database, v domain.Vendor) []Rediscovery {
	docs := db.VendorDocuments(v)
	// earliestDisclosure[key][order] = first disclosure of key in the
	// document with that order index.
	type report struct {
		order int
		date  int64
	}
	first := make(map[string][]report)
	for _, d := range docs {
		seen := map[string]bool{}
		for _, e := range d.Errata {
			if e.Key == "" || e.Disclosed.IsZero() || seen[e.Key] {
				continue
			}
			seen[e.Key] = true
			first[e.Key] = append(first[e.Key], report{order: d.Order, date: e.Disclosed.Unix()})
		}
	}

	var out []Rediscovery
	for _, d := range docs {
		r := Rediscovery{DocKey: d.Key, Label: d.Label}
		release := d.Released.Unix()
		seen := map[string]bool{}
		for _, e := range d.Errata {
			if e.Key == "" || seen[e.Key] {
				continue
			}
			seen[e.Key] = true
			r.Keys++
			inherited := false
			known := false
			for _, rep := range first[e.Key] {
				if rep.order < d.Order {
					inherited = true
					if rep.date < release {
						known = true
					}
				}
			}
			if inherited {
				r.Inherited++
			}
			if known {
				r.KnownAtRelease++
			}
		}
		out = append(out, r)
	}
	return out
}
