package index

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/pkg/domain"
)

// Filter is one row of the errata filter vocabulary, declared once in
// FilterTable. The /v1/errata query parameters (internal/serve) and the
// `rememberr query` flags (the row name with '_' replaced by '-') both
// derive from it; each row parses its values, compiles them onto a
// Query and writes its canonical cache-key part.
type Filter struct {
	// Name is the query parameter.
	Name string
	// Multi marks a parameter where each occurrence adds another
	// filter; giving any other parameter twice is an error.
	Multi bool
	// Switch marks a boolean parameter: true adds the filter and false
	// constrains nothing. A CLI switch may be given bare (-complex).
	Switch bool
	// Usage is the one-line help of the CLI flag.
	Usage string

	// parse compiles the row's values (at least one) into s.
	parse func(s *FilterSet, name string, vals []string) error
}

// FilterTable is the filter vocabulary in canonical order. A value that
// constrains nothing (min_triggers=0, an empty title or date, a false
// switch) adds neither a filter nor a key part, so it shares the bare
// query's cache entry.
var FilterTable = []Filter{
	{Name: "vendor", Usage: "vendor: Intel or AMD", parse: enum(domain.ParseVendor, (*Query).Vendor)},
	{Name: "doc", Usage: "document key, e.g. intel-06", parse: func(s *FilterSet, name string, vals []string) error {
		s.add(func(q *Query) { q.InDocument(vals[0]) }, name, vals[0])
		return nil
	}},
	{Name: "category", Multi: true, Usage: "abstract category in any dimension, e.g. Trg_POW_pwc (repeat to intersect)",
		parse: each((*Query).WithCategory)},
	{Name: "any_category", Multi: true, Usage: "comma-separated categories, any of which matches (repeat to intersect)",
		parse: func(s *FilterSet, name string, vals []string) error {
			// One union per occurrence: the key sorts each union's items
			// and then the unions, under distinct separators, so two
			// groupings of one item set never share a key.
			groups := make([]string, len(vals))
			for i, group := range vals {
				ids := splitList(group)
				s.steps = append(s.steps, func(q *Query) { q.AnyCategory(ids...) })
				groups[i] = canonList(ids, ",")
			}
			slices.Sort(groups)
			s.key = append(s.key, name+"="+strings.Join(slices.Compact(groups), ";"))
			return nil
		}},
	{Name: "class", Multi: true, Usage: "class descriptor, e.g. Trg_POW (repeat to intersect)",
		parse: each((*Query).WithClass)},
	{Name: "trigger", Multi: true, Usage: "trigger category the erratum requires (repeat to require all)",
		parse: func(s *FilterSet, name string, vals []string) error {
			s.add(func(q *Query) { q.WithAllTriggers(vals...) }, name, vals...)
			return nil
		}},
	{Name: "min_triggers", Usage: "minimum number of distinct trigger categories", parse: func(s *FilterSet, name string, vals []string) error {
		n, err := strconv.Atoi(vals[0])
		if err != nil || n < 0 {
			return fmt.Errorf("bad %s %q", name, vals[0])
		}
		if n > 0 {
			s.add(func(q *Query) { q.MinTriggers(n) }, name, strconv.Itoa(n))
		}
		return nil
	}},
	{Name: "msr", Multi: true, Usage: "MSR the effects are observable in, e.g. MCx_STATUS (repeat to intersect)",
		parse: each((*Query).ObservableIn)},
	{Name: "title", Usage: "case-insensitive title substring", parse: func(s *FilterSet, name string, vals []string) error {
		if vals[0] != "" {
			s.add(func(q *Query) { q.TitleContains(vals[0]) }, name, strings.ToLower(vals[0]))
		}
		return nil
	}},
	{Name: "complex", Switch: true, Usage: "complex-condition errata only", parse: switchRow((*Query).Complex)},
	{Name: "sim_only", Switch: true, Usage: "errata observed only in simulation", parse: switchRow((*Query).SimulationOnly)},
	{Name: "workaround", Usage: "workaround category: none, BIOS, software, peripherals, absent or DocFix",
		parse: enum(domain.ParseWorkaroundCategory, (*Query).Workaround)},
	{Name: "fix", Usage: "fix status: NoFixPlanned, FixPlanned or Fixed", parse: enum(domain.ParseFixStatus, (*Query).Fix)},
	{Name: "disclosed_from", Usage: "disclosed on or after YYYY-MM-DD", parse: date(func(s *FilterSet) *time.Time { return &s.from })},
	{Name: "disclosed_to", Usage: "disclosed before YYYY-MM-DD", parse: date(func(s *FilterSet) *time.Time { return &s.to })},
}

// enum is the parse of a row whose value names one constant; the key
// holds the constant's canonical spelling.
func enum[T fmt.Stringer](parse func(string) (T, error), compile func(*Query, T) *Query) func(*FilterSet, string, []string) error {
	return func(s *FilterSet, name string, vals []string) error {
		v, err := parse(vals[0])
		if err == nil {
			s.add(func(q *Query) { compile(q, v) }, name, v.String())
		}
		return err
	}
}

// each is the parse of a multi-valued row where every value adds one
// conjunctive filter.
func each(compile func(*Query, string) *Query) func(*FilterSet, string, []string) error {
	return func(s *FilterSet, name string, vals []string) error {
		for _, v := range vals {
			s.steps = append(s.steps, func(q *Query) { compile(q, v) })
		}
		s.key = append(s.key, name+"="+canonList(vals, ","))
		return nil
	}
}

// switchRow is the parse of a Switch row.
func switchRow(compile func(*Query) *Query) func(*FilterSet, string, []string) error {
	return func(s *FilterSet, name string, vals []string) error {
		on, err := ParseBool(vals[0])
		if on {
			s.add(func(q *Query) { compile(q) }, name, "true")
		}
		return err
	}
}

// date is the parse of one bound of the disclosure range; ParseFilters
// compiles the two bounds into one DisclosedBetween. An omitted bound
// stays at 0001-01-01 or 9999-12-31. The bounds are positional, so each
// keeps its own key part: one sorted part for both once served a
// range's body for the swapped (empty) range.
func date(bound func(s *FilterSet) *time.Time) func(*FilterSet, string, []string) error {
	return func(s *FilterSet, name string, vals []string) error {
		if vals[0] == "" {
			return nil
		}
		t, err := time.Parse(time.DateOnly, vals[0])
		if err != nil {
			return fmt.Errorf("bad %s %q", name, vals[0])
		}
		*bound(s), s.dated = t, true
		s.key = append(s.key, name+"="+vals[0])
		return nil
	}
}

// ParseBool reads a boolean parameter: 1/true/yes or 0/false/no, in any
// case.
func ParseBool(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "1", "true", "yes":
		return true, nil
	case "0", "false", "no":
		return false, nil
	}
	return false, fmt.Errorf("bad boolean %q", s)
}

// FilterSet is a parsed filter set: compile steps for a Query plus the
// canonical cache-key parts that name them.
type FilterSet struct {
	steps    []func(*Query)
	key      []string
	from, to time.Time
	dated    bool
}

// add appends one compile step and its key part.
func (s *FilterSet) add(step func(*Query), name string, vals ...string) {
	s.steps = append(s.steps, step)
	s.key = append(s.key, name+"="+canonList(vals, ","))
}

// canonList joins escaped, sorted, deduplicated values with sep, so
// value order and repeats never change a key. The escape keeps a
// value's own ',' ';' '&' and '=' from reading as a separator, so
// distinct filter sets never share a key.
func canonList(vals []string, sep string) string {
	if len(vals) == 1 {
		return url.QueryEscape(vals[0])
	}
	vs := make([]string, len(vals))
	for i, v := range vals {
		vs[i] = url.QueryEscape(v)
	}
	slices.Sort(vs)
	return strings.Join(slices.Compact(vs), sep)
}

// ParseFilters parses the FilterTable rows present in values, leaving
// the caller's own parameters, named in extra, to the caller. Any other
// parameter is an error, so a typo does not silently match everything,
// and so is giving a single-valued parameter twice, rather than a
// silent first-value win.
func ParseFilters(values url.Values, extra ...string) (FilterSet, error) {
	var unknown []string
	for p := range values {
		if !slices.Contains(extra, p) && !slices.ContainsFunc(FilterTable, func(f Filter) bool { return f.Name == p }) {
			unknown = append(unknown, p)
		}
	}
	if len(unknown) > 0 {
		// Name the smallest, not the first in map order, so a query with
		// several unknown parameters always gets the same error.
		return FilterSet{}, fmt.Errorf("unknown parameter %q", slices.Min(unknown))
	}
	s := FilterSet{to: time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)}
	for i := range FilterTable {
		row := &FilterTable[i]
		vals := values[row.Name]
		if len(vals) == 0 {
			continue
		}
		if !row.Multi && len(vals) > 1 {
			return FilterSet{}, fmt.Errorf("parameter %q is single-valued but was given %d times", row.Name, len(vals))
		}
		if err := row.parse(&s, row.Name, vals); err != nil {
			return FilterSet{}, err
		}
	}
	if s.dated {
		from, to := s.from, s.to
		s.steps = append(s.steps, func(q *Query) { q.DisclosedBetween(from, to) })
	}
	return s, nil
}

// Apply compiles the filter set onto q and returns q.
func (s *FilterSet) Apply(q *Query) *Query {
	for _, step := range s.steps {
		step(q)
	}
	return q
}

// Key returns the canonical key of the filter set together with the
// caller's own key parts (which it may reorder): the parts sorted and
// joined by '&', so parameter order never splits a cache.
func (s *FilterSet) Key(extra ...string) string {
	parts := extra
	if len(s.key) > 0 {
		parts = append(s.key, extra...)
	}
	slices.Sort(parts)
	return strings.Join(parts, "&")
}

// splitList splits a comma-separated list, trimming surrounding
// whitespace and dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
