package specdoc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// FuzzParseDocument fuzzes the tolerant parser with mutated
// specification-update text. Properties:
//
//  1. Parse never panics, whatever the input.
//  2. If Parse accepts the input, the writer's rendering of the result
//     must itself parse ("writer output is always a valid document").
//  3. Parse∘Write is a fixed point after one normalization round:
//     the first round may collapse whitespace and canonicalize the
//     summary table, but a second write/parse round trip must
//     reproduce the document exactly.
//  4. logicalLines equals its Split/Join definition, splitJoinLines.
func FuzzParseDocument(f *testing.F) {
	// Corpus-derived seeds, truncated to a handful of errata per
	// document: full renderings run ~110KB and starve the mutator.
	gt, err := corpus.Generate(1)
	if err != nil {
		f.Fatal(err)
	}
	for i, d := range gt.DB.Documents() {
		if i >= 3 {
			break
		}
		trimmed := *d
		if len(trimmed.Errata) > 4 {
			trimmed.Errata = trimmed.Errata[:4]
		}
		if len(trimmed.Revisions) > 3 {
			trimmed.Revisions = trimmed.Revisions[:3]
		}
		f.Add(Write(&trimmed, WriteOptions{}))
	}
	f.Add("SPECIFICATION UPDATE\n")
	f.Add("SPECIFICATION UPDATE\nVendor: Intel\nGeneration: 1 (D)\nReleased: 2010-01\n" +
		"REVISION HISTORY\nRevision 1 (2010-01): Added AAA001\n" +
		"SUMMARY TABLE OF CHANGES\nAAA001 | Fixed | A title\n" +
		"ERRATA\n\nID: AAA001\nTitle: A title\nProblem: Something breaks.\n" +
		"Status: Fixed\n\nEND OF DOCUMENT\n")
	// Adversarial structure: pipes in cells, a live "Withdrawn" status,
	// reused IDs, double-added revision notes, unmentioned errata.
	f.Add("SPECIFICATION UPDATE\nVendor: AMD\nFamily: 10h 00-0F\nReleased: 2009-03\n" +
		"REVISION HISTORY\nRevision 1 (2009-03): Added 100, 100\nRevision 2 (2009-04): Added 100\n" +
		"SUMMARY TABLE OF CHANGES\n100 | Withdrawn | gone\nx|y | No fix | pipe | title\n" +
		"ERRATA\n\nID: 100\nTitle: t\nStatus: Withdrawn\n\nID: 100\nTitle: t2\n\n" +
		"ID: x|y\nTitle: pipe | title\n\nEND OF DOCUMENT\n")
	f.Add("SPECIFICATION UPDATE\nVendor: Intel\nGeneration: 7/8\nReleased: 2013-06\n" +
		"Bogus header noise\nREVISION HISTORY\nnot a revision\n" +
		"SUMMARY TABLE OF CHANGES\nmissing pipes here\nERRATA\n\n" +
		"Title: field before erratum\nID: A\nTitle: wrapped line that goes on and on and " +
		"on and on and on and on and on and on and on and on and on past the wrap width\n" +
		"Title: duplicated\n\nEND OF DOCUMENT\n")

	f.Fuzz(func(t *testing.T, input string) {
		if got, want := logicalLines(input), splitJoinLines(input); !reflect.DeepEqual(got, want) {
			t.Fatalf("logicalLines(%q) = %q, want %q", input, got, want)
		}
		doc1, _, err := Parse(input)
		if err != nil {
			return // rejected input; only panics are failures
		}
		text2 := Write(doc1, WriteOptions{})
		doc2, _, err := Parse(text2)
		if err != nil {
			t.Fatalf("writer output rejected by parser: %v\ninput: %q\nrendered: %q", err, input, text2)
		}
		text3 := Write(doc2, WriteOptions{})
		doc3, _, err := Parse(text3)
		if err != nil {
			t.Fatalf("second-round output rejected: %v\nrendered: %q", err, text3)
		}
		if !reflect.DeepEqual(doc2, doc3) {
			t.Fatalf("parse/write not a fixed point after normalization:\nround1: %#v\nround2: %#v\ntext: %q",
				doc2, doc3, text3)
		}
	})
}

// splitJoinLines is logicalLines' definition and test oracle: split
// the text at every newline, append each non-blank line indented by two
// spaces, trimmed, to the logical line before it, trim other lines'
// trailing spaces and tabs, and join each logical line's parts with
// one space.
func splitJoinLines(text string) []string {
	var parts [][]string
	for _, l := range strings.Split(text, "\n") {
		trimmedRight := strings.TrimRight(l, " \t")
		if strings.HasPrefix(l, "  ") && len(parts) > 0 && strings.TrimSpace(l) != "" {
			parts[len(parts)-1] = append(parts[len(parts)-1], strings.TrimSpace(trimmedRight))
			continue
		}
		parts = append(parts, []string{trimmedRight})
	}
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.Join(p, " ")
	}
	return out
}

// TestLogicalLinesMatchSplitJoin holds logicalLines to splitJoinLines
// over every rendered document of seeds 1-3 and over edge cases of the
// continuation rule: leading, blank, whitespace-only and Unicode-space
// continuations, runs of them, carriage returns and trailing newlines.
func TestLogicalLinesMatchSplitJoin(t *testing.T) {
	inputs := []string{
		"", "\n", "a", "a\n", "  a", "  a\n  b", "a\n  b\n  c\nd\n", "a\n  \n  b",
		"a\n  \t \n  b  \t", "a \t\n\t  b", "a\n   \u00a0b\u00a0\n", "a\r\n  b\r\n",
		"\n  a\n  b", "a\n\n  b", "a\n  b\n\n  c\n  d", "x\n" + strings.Repeat("  y\n", 1000),
	}
	for seed := int64(1); seed <= 3; seed++ {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range gt.DB.Documents() {
			inputs = append(inputs, Write(d, WriteOptions{}))
		}
	}
	for _, in := range inputs {
		if got, want := logicalLines(in), splitJoinLines(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("logicalLines(%.80q...) differs from splitJoinLines:\n got %q\nwant %q", in, got, want)
		}
	}
}
