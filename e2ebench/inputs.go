package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/index"
	"repro/pkg/domain"
)

// vocab holds the values generated requests draw from. It is taken from
// the database the run serves, so filters name documents, categories,
// classes and MSRs that exist; every slice is sorted, so the same seed
// gives the same requests.
type vocab struct {
	keys     []string // deduplicated erratum keys
	docs     []string // document keys
	cats     []string // abstract categories in use, any dimension
	triggers []string // trigger categories in use
	classes  []string
	msrs     []string
	words    []string // lower-case title words found in 0.5-10% of titles
}

func newVocab(db *domain.Database) *vocab {
	keys, cats, trig, cls, msrs := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	wordTitles := map[string]int{}
	errata := db.Errata()
	for _, e := range errata {
		if e.Key != "" {
			keys[e.Key] = true
		}
		for _, k := range []domain.Kind{domain.Trigger, domain.Context, domain.Effect} {
			for _, it := range e.Ann.Items(k) {
				cats[it.Category] = true
				if k == domain.Trigger {
					trig[it.Category] = true
				}
				if c := db.Scheme.ClassOf(it.Category); c != "" {
					cls[c] = true
				}
			}
		}
		for _, m := range e.Ann.MSRs {
			msrs[m] = true
		}
		seen := map[string]bool{}
		for _, w := range strings.FieldsFunc(strings.ToLower(e.Title), func(r rune) bool { return !unicode.IsLetter(r) }) {
			if len(w) >= 5 && !seen[w] {
				seen[w] = true
				wordTitles[w]++
			}
		}
	}
	var words []string
	for w, n := range wordTitles {
		if n*200 >= len(errata) && n*10 <= len(errata) {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	docs := make([]string, 0, len(db.Docs))
	for k := range db.Docs {
		docs = append(docs, k)
	}
	sort.Strings(docs)
	return &vocab{
		keys: sortedKeys(keys), docs: docs, cats: sortedKeys(cats), triggers: sortedKeys(trig),
		classes: sortedKeys(cls), msrs: sortedKeys(msrs), words: words,
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// filter is one /v1/errata query. url renders it for the server and
// apply replays it through the index query API, so the index layer can
// be timed on the exact filters a workload sends.
type filter struct {
	vendor, doc, category, class, trigger, msr, title string
	minTriggers                                       int
	all                                               bool // unique=false
	limit, offset                                     int  // limit 0: the server's default
}

// url renders the parameters in the server's canonical order.
func (f filter) url() string {
	var b strings.Builder
	b.WriteString("/v1/errata")
	sep := byte('?')
	add := func(k, v string) {
		b.WriteByte(sep)
		sep = '&'
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(v))
	}
	if f.vendor != "" {
		add("vendor", f.vendor)
	}
	if f.doc != "" {
		add("doc", f.doc)
	}
	if f.category != "" {
		add("category", f.category)
	}
	if f.class != "" {
		add("class", f.class)
	}
	if f.trigger != "" {
		add("trigger", f.trigger)
	}
	if f.minTriggers > 0 {
		add("min_triggers", strconv.Itoa(f.minTriggers))
	}
	if f.msr != "" {
		add("msr", f.msr)
	}
	if f.title != "" {
		add("title", f.title)
	}
	if f.all {
		add("unique", "false")
	}
	if f.limit > 0 {
		add("limit", strconv.Itoa(f.limit))
	}
	if f.offset > 0 {
		add("offset", strconv.Itoa(f.offset))
	}
	return b.String()
}

// apply evaluates the filter on ix, before pagination, as the server's
// single-index path does.
func (f filter) apply(ix *index.Index) []*domain.Erratum {
	q := ix.Query()
	if f.vendor != "" {
		v, _ := domain.ParseVendor(f.vendor)
		q.Vendor(v)
	}
	if f.doc != "" {
		q.InDocument(f.doc)
	}
	if f.category != "" {
		q.WithCategory(f.category)
	}
	if f.class != "" {
		q.WithClass(f.class)
	}
	if f.trigger != "" {
		q.WithAllTriggers(f.trigger)
	}
	if f.minTriggers > 0 {
		q.MinTriggers(f.minTriggers)
	}
	if f.msr != "" {
		q.ObservableIn(f.msr)
	}
	if f.title != "" {
		q.TitleContains(f.title)
	}
	if f.all {
		return q.All()
	}
	return q.Unique()
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// shapedFilter returns the i-th filter of a list. Its shape depends on
// i alone — how many of vendor, doc, trigger, category, class,
// min_triggers and msr it combines (one to three), its page size and
// offset, or, for a title filter, a bare title substring filter with a
// page size and offset — so every seed sends the same mix of query
// costs; the seed picks the dimensions and their values.
func shapedFilter(rng *rand.Rand, v *vocab, i int, title bool) filter {
	limits, offsets := []int{10, 20, 50, 100}, []int{0, 0, 10, 0, 20}
	f := filter{limit: limits[i%4], offset: offsets[i%5]}
	if title {
		f.title = pick(rng, v.words)
		return f
	}
	for _, d := range rng.Perm(7)[:1+i%3] {
		switch d {
		case 0:
			f.vendor = []string{"Intel", "AMD"}[rng.Intn(2)]
		case 1:
			f.doc = pick(rng, v.docs)
		case 2:
			f.trigger = pick(rng, v.triggers)
		case 3:
			f.category = pick(rng, v.cats)
		case 4:
			f.class = pick(rng, v.classes)
		case 5:
			f.minTriggers = 1 + rng.Intn(3)
		case 6:
			f.msr = pick(rng, v.msrs)
		}
	}
	return f
}

// distinctFilters draws n filters with distinct URLs; with titleEvery
// above 0, every titleEvery-th one is a title filter. A title filter's
// shape index counts title filters only, so title filters cycle
// through every page size and offset too.
func distinctFilters(rng *rand.Rand, v *vocab, n, titleEvery int) ([]filter, error) {
	seen := make(map[string]bool, n)
	out := make([]filter, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("corpus vocabulary too small for %d distinct filters", n)
		}
		i := len(out)
		title := titleEvery > 0 && i%titleEvery == 0
		if title {
			i /= titleEvery
		}
		f := shapedFilter(rng, v, i, title)
		if u := f.url(); !seen[u] {
			seen[u] = true
			out = append(out, f)
		}
	}
	return out, nil
}
