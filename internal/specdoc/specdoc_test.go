package specdoc

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/corpus"
	"repro/pkg/domain"
	corpusprofile "repro/plugins/corpusprofile/intelamd"
)

func date(y, m int) time.Time {
	return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC)
}

func sampleDoc() *domain.Document {
	return &domain.Document{
		Key:       "intel-06",
		Vendor:    domain.Intel,
		Label:     "6",
		Reference: "332689-028US",
		GenIndex:  6,
		Released:  date(2015, 8),
		Revisions: []domain.Revision{
			{Number: 1, Date: date(2015, 9), Added: []string{"SKL001", "SKL002"}},
			{Number: 2, Date: date(2015, 11), Added: []string{"SKL003"}},
		},
		Errata: []*domain.Erratum{
			{
				DocKey: "intel-06", ID: "SKL001", Seq: 1,
				Title:       "Processor May Hang During Power State Transitions",
				Description: "When the core resumes from the C6 power state, the processor may hang.",
				Implication: "The system may be affected as described.",
				Workaround:  "It is possible for the BIOS to contain a workaround for this erratum.",
				Status:      "No fix planned.",
				AddedIn:     1,
			},
			{
				DocKey: "intel-06", ID: "SKL002", Seq: 2,
				Title:       "Performance Counters May Report Incorrect Values",
				Description: "When a counter overflow occurs, a performance counter may report a wrong value.",
				Implication: "Software relying on counters may misbehave.",
				Workaround:  "None identified.",
				Status:      "No fix planned.",
				AddedIn:     1,
			},
			{
				DocKey: "intel-06", ID: "SKL003", Seq: 3,
				Title:       "A Very Long Titled Erratum That Exercises The Line Wrapping Machinery Of The Specification Update Writer And Parser",
				Description: strings.TrimSpace(strings.Repeat("Under a complex set of conditions the processor may behave unexpectedly. ", 6)),
				Implication: "Unpredictable system behavior may occur.",
				Workaround:  "System software may contain the workaround for this erratum.",
				Status:      "Fixed in stepping B0.",
				AddedIn:     2,
			},
		},
		Withdrawn: []string{"SKL900"},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	d := sampleDoc()
	text := Write(d, WriteOptions{})
	got, diags, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, dg := range diags {
		t.Errorf("unexpected diagnostic: %s", dg)
	}
	if got.Key != d.Key || got.Vendor != d.Vendor || got.Label != d.Label ||
		got.Reference != d.Reference || got.GenIndex != d.GenIndex ||
		!got.Released.Equal(d.Released) {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Revisions) != len(d.Revisions) {
		t.Fatalf("revisions = %d, want %d", len(got.Revisions), len(d.Revisions))
	}
	for i := range d.Revisions {
		w, g := d.Revisions[i], got.Revisions[i]
		if w.Number != g.Number || !w.Date.Equal(g.Date) || strings.Join(w.Added, ",") != strings.Join(g.Added, ",") {
			t.Errorf("revision %d mismatch: %+v vs %+v", i, w, g)
		}
	}
	if len(got.Errata) != len(d.Errata) {
		t.Fatalf("errata = %d, want %d", len(got.Errata), len(d.Errata))
	}
	for i := range d.Errata {
		w, g := d.Errata[i], got.Errata[i]
		if w.ID != g.ID || w.Title != g.Title || w.Description != g.Description ||
			w.Implication != g.Implication || w.Workaround != g.Workaround ||
			w.Status != g.Status || w.AddedIn != g.AddedIn || w.Seq != g.Seq {
			t.Errorf("erratum %s mismatch:\n got %+v\nwant %+v", w.ID, g, w)
		}
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != "SKL900" {
		t.Errorf("withdrawn = %v", got.Withdrawn)
	}
}

func TestParseDuplicateField(t *testing.T) {
	d := sampleDoc()
	text := Write(d, WriteOptions{DuplicateFields: map[string]string{
		"intel-06#2": "Workaround",
	}})
	got, diags, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, dg := range diags {
		if dg.Kind == "duplicate-field" && dg.ID == "SKL002" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing duplicate-field diagnostic; got %v", diags)
	}
	// First occurrence wins.
	if got.Errata[1].Workaround != d.Errata[1].Workaround {
		t.Errorf("duplicated field corrupted value: %q", got.Errata[1].Workaround)
	}
}

func TestParseMissingField(t *testing.T) {
	d := sampleDoc()
	d.Errata[0].Implication = ""
	text := Write(d, WriteOptions{})
	got, _, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Errata[0].Implication != "" {
		t.Errorf("missing field parsed as %q", got.Errata[0].Implication)
	}
}

func TestParseDoubleAdded(t *testing.T) {
	d := sampleDoc()
	// Revision 2 also claims SKL001.
	d.Revisions[1].Added = append(d.Revisions[1].Added, "SKL001")
	text := Write(d, WriteOptions{})
	got, diags, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Errata[0].AddedIn != 1 {
		t.Errorf("double-added erratum AddedIn = %d, want earliest (1)", got.Errata[0].AddedIn)
	}
	found := false
	for _, dg := range diags {
		if dg.Kind == "double-added" && dg.ID == "SKL001" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing double-added diagnostic; got %v", diags)
	}
}

func TestParseUnmentioned(t *testing.T) {
	d := sampleDoc()
	d.Revisions[1].Added = nil // SKL003 vanishes from the notes
	text := Write(d, WriteOptions{})
	got, diags, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Errata[2].AddedIn != 0 {
		t.Errorf("unmentioned erratum AddedIn = %d, want 0", got.Errata[2].AddedIn)
	}
	found := false
	for _, dg := range diags {
		if dg.Kind == "unmentioned-in-notes" && dg.ID == "SKL003" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing unmentioned-in-notes diagnostic; got %v", diags)
	}
}

func TestParseReusedID(t *testing.T) {
	d := sampleDoc()
	d.Errata[2].ID = "SKL001" // name reuse
	// Fix the revision notes to mention SKL001 twice.
	d.Revisions[1].Added = []string{"SKL001"}
	text := Write(d, WriteOptions{})
	got, diags, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	reused := false
	for _, dg := range diags {
		if dg.Kind == "reused-id" && dg.ID == "SKL001" {
			reused = true
		}
	}
	if !reused {
		t.Errorf("missing reused-id diagnostic; got %v", diags)
	}
	// Both entries keep distinct revisions, in document order.
	if got.Errata[0].AddedIn != 1 || got.Errata[2].AddedIn != 2 {
		t.Errorf("reused-name AddedIn = (%d,%d), want (1,2)",
			got.Errata[0].AddedIn, got.Errata[2].AddedIn)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, _, err := Parse("this is not a specification update"); err == nil {
		t.Error("Parse accepted garbage")
	}
	if _, _, err := Parse(""); err == nil {
		t.Error("Parse accepted empty input")
	}
}

func TestLabelToKey(t *testing.T) {
	cases := []struct {
		vendor domain.Vendor
		label  string
		key    string
		gen    int
	}{
		{domain.Intel, "1 (D)", "intel-01d", 1},
		{domain.Intel, "1 (M)", "intel-01m", 1},
		{domain.Intel, "7/8", "intel-07", 7},
		{domain.Intel, "12", "intel-12", 12},
		{domain.AMD, "17h 30-3F", "amd-17h-30", 0},
		{domain.AMD, "10h 00-0F", "amd-10h-00", 0},
	}
	for _, c := range cases {
		key, gen, err := LabelToKey(c.vendor, c.label)
		if err != nil || key != c.key || gen != c.gen {
			t.Errorf("LabelToKey(%v,%q) = (%q,%d,%v), want (%q,%d)",
				c.vendor, c.label, key, gen, err, c.key, c.gen)
		}
	}
	if _, _, err := LabelToKey(domain.Intel, "abc"); err == nil {
		t.Error("accepted bad Intel label")
	}
	if _, _, err := LabelToKey(domain.AMD, "garbage"); err == nil {
		t.Error("accepted bad AMD label")
	}
}

func TestFullCorpusRoundTrip(t *testing.T) {
	gt, err := corpus.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	dup := make(map[string]string)
	for _, fe := range gt.Inventory.FieldErrors {
		if fe.Kind == "duplicate" {
			field := fe.Field
			if field == "Description" {
				field = "Problem"
			}
			dup[fe.Ref] = field
		}
	}
	texts := WriteAll(gt.DB, WriteOptions{DuplicateFields: dup})
	if len(texts) != 28 {
		t.Fatalf("rendered %d documents, want 28", len(texts))
	}
	db, diags, err := ParseAll(texts)
	if err != nil {
		t.Fatal(err)
	}
	stats := db.ComputeStats()
	if stats.Total != corpusprofile.TargetTotal {
		t.Errorf("parsed total = %d, want %d", stats.Total, corpusprofile.TargetTotal)
	}
	if stats.IntelTotal != corpusprofile.TargetIntelTotal || stats.AMDTotal != corpusprofile.TargetAMDTotal {
		t.Errorf("parsed per-vendor totals = (%d,%d)", stats.IntelTotal, stats.AMDTotal)
	}

	// Every ground-truth text field must round-trip.
	reused := map[string]bool{
		gt.Inventory.ReusedName[0]: true,
		gt.Inventory.ReusedName[1]: true,
	}
	for _, want := range gt.DB.Documents() {
		got := db.Docs[want.Key]
		if got == nil {
			t.Fatalf("document %s missing after parse", want.Key)
		}
		if got.Order != want.Order {
			t.Errorf("%s: order %d != %d", want.Key, got.Order, want.Order)
		}
		if len(got.Errata) != len(want.Errata) {
			t.Fatalf("%s: %d errata, want %d", want.Key, len(got.Errata), len(want.Errata))
		}
		for i := range want.Errata {
			w, g := want.Errata[i], got.Errata[i]
			if w.ID != g.ID || w.Title != g.Title || w.Description != g.Description ||
				w.Workaround != g.Workaround || w.Status != g.Status {
				t.Fatalf("%s#%d: text fields differ", want.Key, w.Seq)
			}
			if w.AddedIn != g.AddedIn && !reused[corpus.EntryRef(w)] {
				t.Errorf("%s (%s): AddedIn %d != %d", w.FullID(), w.Title, g.AddedIn, w.AddedIn)
			}
		}
	}

	// Diagnostics must surface the injected errors.
	kinds := map[string]int{}
	for _, dg := range diags {
		kinds[dg.Kind]++
	}
	if kinds["duplicate-field"] < 3 {
		t.Errorf("duplicate-field diagnostics = %d, want >= 3", kinds["duplicate-field"])
	}
	if kinds["double-added"] < 8 {
		t.Errorf("double-added diagnostics = %d, want >= 8", kinds["double-added"])
	}
	if kinds["unmentioned-in-notes"] < 12 {
		t.Errorf("unmentioned diagnostics = %d, want >= 12", kinds["unmentioned-in-notes"])
	}
	if kinds["reused-id"] != 1 {
		t.Errorf("reused-id diagnostics = %d, want 1", kinds["reused-id"])
	}
}

// Property: logical-line reconstruction is the inverse of wrapping for
// arbitrary word content.
func TestPropertyWrapRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r <= ' ' || r > '~' {
					return -1
				}
				return r
			}, w)
			if w != "" {
				if len(w) > 40 {
					w = w[:40]
				}
				clean = append(clean, w)
			}
		}
		if len(clean) == 0 {
			return true
		}
		line := "Problem: " + strings.Join(clean, " ")
		var b strings.Builder
		writeWrapped(&b, line)
		joined := logicalLines(b.String())
		return len(joined) >= 1 && joined[0] == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
