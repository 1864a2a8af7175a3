// Package analysis implements the corpus studies of Sections IV-B and
// V-B of the paper: workaround and fix breakdowns, trigger/context/
// effect frequencies, trigger-count histograms, pairwise trigger
// correlation, trigger-class evolution across generations, per-vendor
// class representation, and MSR observation-point frequencies.
//
// All studies operate on unique (deduplicated) errata, as in the paper,
// unless stated otherwise. Deduplication and annotation must have run.
package analysis

import (
	"sort"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// CategoryCount is a category with its number of unique errata.
type CategoryCount struct {
	Category string
	Count    int
}

// sortCounts orders descending by count, then by category for stability.
func sortCounts(m map[string]int) []CategoryCount {
	out := make([]CategoryCount, 0, len(m))
	for c, n := range m {
		out = append(out, CategoryCount{Category: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// FrequentCategories counts, per vendor, how many unique errata carry
// each abstract category of the given kind (Figures 10, 17 and 18).
func FrequentCategories(db *domain.Database, k taxonomy.Kind) map[domain.Vendor][]CategoryCount {
	out := make(map[domain.Vendor][]CategoryCount)
	for _, v := range domain.Vendors {
		counts := make(map[string]int)
		for _, e := range db.UniqueVendor(v) {
			for _, cat := range e.Ann.Categories(k, db.Scheme) {
				counts[cat]++
			}
		}
		out[v] = sortCounts(counts)
	}
	return out
}

// Workarounds counts unique errata per workaround category and vendor
// (Figure 6).
func Workarounds(db *domain.Database) map[domain.Vendor]map[domain.WorkaroundCategory]int {
	out := make(map[domain.Vendor]map[domain.WorkaroundCategory]int)
	for _, v := range domain.Vendors {
		m := make(map[domain.WorkaroundCategory]int)
		for _, e := range db.UniqueVendor(v) {
			m[e.WorkaroundCat]++
		}
		out[v] = m
	}
	return out
}

// FixCount summarizes the fix statuses of one document (Figure 7).
type FixCount struct {
	DocKey  string
	Label   string
	Vendor  domain.Vendor
	Fixed   int
	Planned int
	Unfixed int
}

// Total returns the document's entry count.
func (f FixCount) Total() int { return f.Fixed + f.Planned + f.Unfixed }

// Fixes counts fixed vs unfixed bugs per document (Figure 7; all
// entries, since fixing is per design).
func Fixes(db *domain.Database) []FixCount {
	var out []FixCount
	for _, d := range db.Documents() {
		fc := FixCount{DocKey: d.Key, Label: d.Label, Vendor: d.Vendor}
		for _, e := range d.Errata {
			switch e.Fix {
			case domain.FixDone:
				fc.Fixed++
			case domain.FixPlanned:
				fc.Planned++
			default:
				fc.Unfixed++
			}
		}
		out = append(out, fc)
	}
	return out
}

// TriggerCounts is the Figure 11 histogram.
type TriggerCounts struct {
	// PerCount[n] is the number of unique errata requiring exactly n
	// triggers (n >= 1).
	PerCount map[int]int
	// Excluded is the number of errata with no clear or only trivial
	// triggers (the paper excludes 14.4%).
	Excluded int
	// Total is the number of unique errata considered.
	Total int
	// Complex counts errata mentioning a "complex set of conditions".
	Complex int
}

// AtLeastTwoFraction is the fraction of non-excluded errata requiring at
// least two combined triggers (the paper reports 49%).
func (t TriggerCounts) AtLeastTwoFraction() float64 {
	considered, multi := 0, 0
	for n, c := range t.PerCount {
		considered += c
		if n >= 2 {
			multi += c
		}
	}
	if considered == 0 {
		return 0
	}
	return float64(multi) / float64(considered)
}

// ExcludedFraction is Excluded/Total.
func (t TriggerCounts) ExcludedFraction() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.Excluded) / float64(t.Total)
}

// TriggerCountHistogram computes Figure 11 over unique errata of both
// vendors combined; pass a single vendor via vendors to restrict.
func TriggerCountHistogram(db *domain.Database, vendors ...domain.Vendor) TriggerCounts {
	if len(vendors) == 0 {
		vendors = domain.Vendors
	}
	tc := TriggerCounts{PerCount: make(map[int]int)}
	for _, v := range vendors {
		for _, e := range db.UniqueVendor(v) {
			tc.Total++
			if e.Ann.ComplexConditions {
				tc.Complex++
			}
			n := len(e.Ann.Categories(taxonomy.Trigger, db.Scheme))
			if e.Ann.TrivialTrigger || n == 0 {
				tc.Excluded++
				continue
			}
			tc.PerCount[n]++
		}
	}
	return tc
}

// Correlation is the pairwise trigger cross-correlation of Figure 12.
type Correlation struct {
	// Categories lists the abstract triggers in scheme order.
	Categories []string
	// Counts[i][j] is the number of unique errata requiring at least
	// both Categories[i] and Categories[j] (diagonal: errata requiring
	// the category at all).
	Counts [][]int
	index  map[string]int
}

// Pair returns the count for a pair of categories.
func (c *Correlation) Pair(a, b string) int {
	i, oki := c.index[a]
	j, okj := c.index[b]
	if !oki || !okj {
		return 0
	}
	return c.Counts[i][j]
}

// TopPairs returns the n strongest off-diagonal pairs.
func (c *Correlation) TopPairs(n int) []struct {
	A, B  string
	Count int
} {
	type pair struct {
		A, B  string
		Count int
	}
	var ps []pair
	for i := range c.Categories {
		for j := i + 1; j < len(c.Categories); j++ {
			if c.Counts[i][j] > 0 {
				ps = append(ps, pair{A: c.Categories[i], B: c.Categories[j], Count: c.Counts[i][j]})
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Count != ps[j].Count {
			return ps[i].Count > ps[j].Count
		}
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	if n > 0 && len(ps) > n {
		ps = ps[:n]
	}
	out := make([]struct {
		A, B  string
		Count int
	}, len(ps))
	for i, p := range ps {
		out[i] = struct {
			A, B  string
			Count int
		}{p.A, p.B, p.Count}
	}
	return out
}

// TriggerCorrelation computes Figure 12 over the unique errata of both
// vendors.
func TriggerCorrelation(db *domain.Database) *Correlation {
	cats := db.Scheme.CategoryIDs(taxonomy.Trigger)
	c := &Correlation{
		Categories: cats,
		Counts:     make([][]int, len(cats)),
		index:      make(map[string]int, len(cats)),
	}
	for i, cat := range cats {
		c.Counts[i] = make([]int, len(cats))
		c.index[cat] = i
	}
	for _, v := range domain.Vendors {
		for _, e := range db.UniqueVendor(v) {
			present := e.Ann.Categories(taxonomy.Trigger, db.Scheme)
			for x := 0; x < len(present); x++ {
				i := c.index[present[x]]
				c.Counts[i][i]++
				for y := x + 1; y < len(present); y++ {
					j := c.index[present[y]]
					c.Counts[i][j]++
					c.Counts[j][i]++
				}
			}
		}
	}
	return c
}

// GenerationClasses is one row of Figure 13: the trigger-class counts of
// one Intel generation.
type GenerationClasses struct {
	DocKey   string
	Label    string
	GenIndex int
	// Classes maps a trigger class to the number of unique-in-document
	// errata whose annotation requires a trigger of that class.
	Classes map[string]int
	// Errata is the number of distinct keys in the document.
	Errata int
}

// ClassesOverGenerations computes Figure 13: trigger classes per Intel
// document.
func ClassesOverGenerations(db *domain.Database) []GenerationClasses {
	var out []GenerationClasses
	for _, d := range db.VendorDocuments(domain.Intel) {
		gc := GenerationClasses{
			DocKey: d.Key, Label: d.Label, GenIndex: d.GenIndex,
			Classes: make(map[string]int),
		}
		seen := make(map[string]bool)
		for _, e := range d.Errata {
			if e.Key == "" || seen[e.Key] {
				continue
			}
			seen[e.Key] = true
			gc.Errata++
			for _, cl := range e.Ann.Classes(taxonomy.Trigger, db.Scheme) {
				gc.Classes[cl]++
			}
		}
		out = append(out, gc)
	}
	return out
}

// ClassShare is a class with its share of all items of its kind.
type ClassShare struct {
	Class string
	Count int
	Share float64
}

// ClassRepresentation computes, per vendor, the share of each class
// among all annotated items of the kind (Figure 14 for triggers): the
// total number of triggers over all unique errata, grouped by class.
func ClassRepresentation(db *domain.Database, k taxonomy.Kind) map[domain.Vendor][]ClassShare {
	out := make(map[domain.Vendor][]ClassShare)
	for _, v := range domain.Vendors {
		counts := make(map[string]int)
		total := 0
		for _, e := range db.UniqueVendor(v) {
			for _, cat := range e.Ann.Categories(k, db.Scheme) {
				cl := db.Scheme.ClassOf(cat)
				counts[cl]++
				total++
			}
		}
		var shares []ClassShare
		for _, cl := range db.Scheme.ClassIDs(k) {
			s := ClassShare{Class: cl, Count: counts[cl]}
			if total > 0 {
				s.Share = float64(counts[cl]) / float64(total)
			}
			shares = append(shares, s)
		}
		out[v] = shares
	}
	return out
}

// CategoryShare is an abstract category with its share within a class.
type CategoryShare struct {
	Category string
	Count    int
	Share    float64
}

// ClassBreakdown computes, per vendor, the relative representation of
// the abstract categories inside one class (Figures 15 and 16 for
// Trg_EXT and Trg_FEA).
func ClassBreakdown(db *domain.Database, classID string) map[domain.Vendor][]CategoryShare {
	kind, _, _, err := taxonomy.Parse(classID)
	if err != nil {
		return nil
	}
	catIDs := db.Scheme.CategoriesOf(classID)
	out := make(map[domain.Vendor][]CategoryShare)
	for _, v := range domain.Vendors {
		counts := make(map[string]int)
		total := 0
		for _, e := range db.UniqueVendor(v) {
			for _, cat := range e.Ann.Categories(kind, db.Scheme) {
				if db.Scheme.ClassOf(cat) == classID {
					counts[cat]++
					total++
				}
			}
		}
		var shares []CategoryShare
		for _, cat := range catIDs {
			s := CategoryShare{Category: cat, Count: counts[cat]}
			if total > 0 {
				s.Share = float64(counts[cat]) / float64(total)
			}
			shares = append(shares, s)
		}
		out[v] = shares
	}
	return out
}

// MSRCount is one bar of Figure 19.
type MSRCount struct {
	MSR   string
	Count int
	// Share is the fraction of the vendor's unique errata naming this
	// register as an observation point.
	Share float64
}

// MSRFrequency computes Figure 19: the most frequent MSRs containing
// observable effects, per vendor, as a fraction of unique errata.
func MSRFrequency(db *domain.Database) map[domain.Vendor][]MSRCount {
	out := make(map[domain.Vendor][]MSRCount)
	for _, v := range domain.Vendors {
		unique := db.UniqueVendor(v)
		counts := make(map[string]int)
		for _, e := range unique {
			seen := make(map[string]bool)
			for _, m := range e.Ann.MSRs {
				if !seen[m] {
					seen[m] = true
					counts[m]++
				}
			}
		}
		var list []MSRCount
		for _, cc := range sortCounts(counts) {
			mc := MSRCount{MSR: cc.Category, Count: cc.Count}
			if len(unique) > 0 {
				mc.Share = float64(cc.Count) / float64(len(unique))
			}
			list = append(list, mc)
		}
		out[v] = list
	}
	return out
}
