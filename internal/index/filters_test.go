package index

import (
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestREADMEListsFilterTable holds README's /v1/errata parameter table
// (the reference evaluator's spec) to FilterTable: the same names in
// the same order, followed by the three pagination parameters serve
// adds.
func TestREADMEListsFilterTable(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, contract, ok := strings.Cut(string(readme), "\nHTTP contract:\n")
	if !ok {
		t.Fatal(`README has no "HTTP contract:" section`)
	}
	contract, _, _ = strings.Cut(contract, "\n### ")
	row := regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|")
	var got []string
	for _, m := range row.FindAllStringSubmatch(contract, -1) {
		got = append(got, m[1])
	}
	var want []string
	for _, f := range FilterTable {
		want = append(want, f.Name)
	}
	want = append(want, "unique", "limit", "offset")
	if !slices.Equal(got, want) {
		t.Fatalf("README parameter table lists\n%v\nwant\n%v", got, want)
	}
}

// TestFilterKeys pins the canonical key: spellings of one filter set
// share a key, a filter that constrains nothing adds no part, and
// values carrying a separator never make two filter sets collide.
func TestFilterKeys(t *testing.T) {
	key := func(raw string) string {
		t.Helper()
		values, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseFilters(values)
		if err != nil {
			t.Fatalf("?%s: %v", raw, err)
		}
		return s.Key()
	}
	same := [][]string{
		{"", "min_triggers=0", "title=", "complex=no", "sim_only=0", "disclosed_from=&disclosed_to="},
		{"vendor=intel", "vendor=%20INTEL"},
		{"category=a&category=b", "category=b&category=a", "category=b&category=a&category=b"},
		{"any_category=a,b&any_category=c", "any_category=c&any_category=%20b,a,,"},
		{"title=Cache", "title=cACHE"},
	}
	for _, group := range same {
		for _, raw := range group[1:] {
			if a, b := key(group[0]), key(raw); a != b {
				t.Errorf("?%s key %q != ?%s key %q", raw, b, group[0], a)
			}
		}
	}
	distinct := [][2]string{
		{"category=a,b", "category=a&category=b"},
		{"any_category=a,b&any_category=c", "any_category=a&any_category=b,c"},
		{"doc=x%26vendor%3DIntel", "doc=x&vendor=Intel"},
		{"disclosed_from=2010-01-01", "disclosed_to=2010-01-01"},
		{"disclosed_to=0001-01-01", ""},
		{"disclosed_from=0001-01-01", ""},
	}
	for _, pair := range distinct {
		if a, b := key(pair[0]), key(pair[1]); a == b {
			t.Errorf("?%s and ?%s share key %q", pair[0], pair[1], a)
		}
	}
}

// TestParseFiltersRejects lists values every row must refuse.
func TestParseFiltersRejects(t *testing.T) {
	for _, raw := range []string{
		"vendor=VIA", "vendor=Intel&vendor=AMD", "min_triggers=-1", "min_triggers=x",
		"complex=", "sim_only=maybe", "workaround=magic", "fix=soon",
		"disclosed_from=2010-1-01", "disclosed_from=%2B2010-01-01", "disclosed_to=2010-02-30",
		"title=a&title=b",
	} {
		values, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseFilters(values); err == nil {
			t.Errorf("?%s parsed without error", raw)
		}
	}
}
