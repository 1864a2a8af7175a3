// Package specdoc models the specification-update document format: a
// plain-text rendering faithful to the structure of Intel and AMD errata
// PDFs (title block, revision history, summary table of changes,
// per-erratum fields), plus a tolerant parser that recovers structured
// documents from that text.
//
// The format substitutes for PDF extraction, which is the data gate of
// this reproduction: the parser faces the same classes of noise the
// paper reports ("errata in errata": duplicated entries, reused names,
// missing and duplicated fields, inconsistent revision notes) and emits
// diagnostics for each.
package specdoc

import (
	"fmt"
	"strings"

	"repro/internal/parallel"
	"repro/pkg/domain"
)

// WriteOptions controls error injection at the text level.
type WriteOptions struct {
	// DuplicateFields maps entry references ("docKey#seq") to the name
	// of a field that must be rendered twice ("Implication",
	// "Workaround", "Status"), reproducing the duplicate-field errors.
	DuplicateFields map[string]string
}

// lineWidth is the wrap width of the rendered text, mimicking the
// fixed-width output of PDF text extraction.
const lineWidth = 92

// Write renders a document to the specification-update text format.
func Write(d *domain.Document, opts WriteOptions) string {
	var b strings.Builder

	fmt.Fprintf(&b, "SPECIFICATION UPDATE\n")
	fmt.Fprintf(&b, "Vendor: %s\n", d.Vendor)
	fmt.Fprintf(&b, "Reference: %s\n", d.Reference)
	if d.Vendor == domain.Intel {
		fmt.Fprintf(&b, "Generation: %s\n", d.Label)
	} else {
		fmt.Fprintf(&b, "Family: %s\n", d.Label)
	}
	fmt.Fprintf(&b, "Released: %s\n", d.Released.Format("2006-01"))
	b.WriteString("\n")

	b.WriteString("REVISION HISTORY\n")
	for _, r := range d.Revisions {
		line := fmt.Sprintf("Revision %d (%s)", r.Number, r.Date.Format("2006-01"))
		if len(r.Added) > 0 {
			line += ": Added " + strings.Join(r.Added, ", ")
		}
		writeWrapped(&b, line)
	}
	b.WriteString("\n")

	b.WriteString("SUMMARY TABLE OF CHANGES\n")
	for _, e := range d.Errata {
		writeWrapped(&b, fmt.Sprintf("%s | %s | %s",
			sanitizeCell(e.ID), summaryStatus(e.Status), e.Title))
	}
	for _, id := range d.Withdrawn {
		writeWrapped(&b, fmt.Sprintf("%s | Withdrawn | Details removed.", sanitizeCell(id)))
	}
	b.WriteString("\n")

	b.WriteString("ERRATA\n\n")
	for _, e := range d.Errata {
		ref := fmt.Sprintf("%s#%d", e.DocKey, e.Seq)
		dupField := opts.DuplicateFields[ref]
		writeWrapped(&b, "ID: "+e.ID)
		writeWrapped(&b, "Title: "+e.Title)
		writeField(&b, "Problem", e.Description, dupField == "Problem")
		writeField(&b, "Implication", e.Implication, dupField == "Implication")
		writeField(&b, "Workaround", e.Workaround, dupField == "Workaround")
		writeField(&b, "Status", e.Status, dupField == "Status")
		b.WriteString("\n")
	}
	b.WriteString("END OF DOCUMENT\n")
	return b.String()
}

// sanitizeCell makes a value safe for the ID and status columns of the
// summary table, which the parser splits on "|". The title column needs
// no escaping: it is the last column of a 3-way split, so embedded pipes
// survive. Generated corpora never contain "|", so pipeline output is
// unaffected.
func sanitizeCell(s string) string {
	return strings.ReplaceAll(s, "|", "/")
}

// summaryStatus renders the status column of a live entry. The literal
// cell "Withdrawn" is reserved: the parser turns such rows into
// Document.Withdrawn entries instead of live errata, so a live erratum
// whose Status field happens to be "Withdrawn" must render differently
// or the document would gain a phantom withdrawn row on every
// write/parse round trip. The authoritative status remains the
// "Status:" field in the ERRATA section.
func summaryStatus(s string) string {
	s = sanitizeCell(s)
	if strings.Join(strings.Fields(s), " ") == "Withdrawn" {
		return "Withdrawn (live entry)"
	}
	return s
}

// writeField renders one optional field; empty fields are omitted
// entirely (the "missing field" document error), and duplicated fields
// are rendered twice.
func writeField(b *strings.Builder, name, value string, dup bool) {
	if strings.TrimSpace(value) == "" {
		return
	}
	writeWrapped(b, name+": "+value)
	if dup {
		writeWrapped(b, name+": "+value)
	}
}

// writeWrapped writes a logical line wrapped at lineWidth; continuation
// lines are indented with two spaces, as PDF extraction would produce.
func writeWrapped(b *strings.Builder, line string) {
	words := strings.Fields(line)
	cur := ""
	first := true
	flush := func() {
		if cur == "" {
			return
		}
		if !first {
			b.WriteString("  ")
		}
		b.WriteString(cur)
		b.WriteString("\n")
		first = false
		cur = ""
	}
	for _, w := range words {
		if cur == "" {
			cur = w
			continue
		}
		if len(cur)+1+len(w) > lineWidth {
			flush()
			cur = w
			continue
		}
		cur += " " + w
	}
	flush()
	if first {
		b.WriteString("\n")
	}
}

// WriteAll renders every document of a database, keyed by document
// key, using all available CPUs; see WriteAllParallel for the worker
// knob.
func WriteAll(db *domain.Database, opts WriteOptions) map[string]string {
	return WriteAllParallel(db, opts, 0)
}

// WriteAllParallel renders every document with a bounded worker pool
// (0 = GOMAXPROCS, 1 = sequential). Rendering is pure per document, so
// the output map is identical at every worker count.
func WriteAllParallel(db *domain.Database, opts WriteOptions, workers int) map[string]string {
	docs := db.Documents()
	texts, _ := parallel.Map(len(docs), workers, func(i int) (string, error) {
		return Write(docs[i], opts), nil
	})
	out := make(map[string]string, len(docs))
	for i, d := range docs {
		out[d.Key] = texts[i]
	}
	return out
}
