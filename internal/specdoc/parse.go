package specdoc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// Diagnostic reports one document inconsistency discovered while
// parsing — the "errata in errata" of Section IV-A.
type Diagnostic struct {
	// DocKey is the document the diagnostic belongs to.
	DocKey string
	// ID is the erratum ID involved, if any.
	ID string
	// Kind classifies the inconsistency: "duplicate-field",
	// "double-added", "unmentioned-in-notes", "reused-id",
	// "title-mismatch", "summary-missing", "bad-date", "bad-line".
	Kind string
	// Message is a human-readable explanation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s[%s] %s: %s", d.DocKey, d.ID, d.Kind, d.Message)
}

// Parse recovers a structured document from specification-update text.
// The parser is tolerant: structural noise produces diagnostics, not
// errors. An error is returned only when the text is not a
// specification-update document at all.
func Parse(text string) (*domain.Document, []Diagnostic, error) {
	p := &parser{lines: logicalLines(text)}
	return p.run()
}

type parser struct {
	lines []string
	pos   int
	doc   *domain.Document
	diags []Diagnostic

	summaryTitle  map[string]string
	summaryStatus map[string]string
}

func (p *parser) diag(id, kind, msg string) {
	key := ""
	if p.doc != nil {
		key = p.doc.Key
	}
	p.diags = append(p.diags, Diagnostic{DocKey: key, ID: id, Kind: kind, Message: msg})
}

// logicalLines joins wrapped continuation lines (indented by two spaces)
// back into logical lines. Fragments are collected per logical line and
// joined once at the end: appending to a growing string instead is
// quadratic in the run length, which adversarial inputs (thousands of
// consecutive continuation lines) turn into seconds of work.
func logicalLines(text string) []string {
	raw := strings.Split(text, "\n")
	var parts [][]string
	for _, l := range raw {
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

func (p *parser) run() (*domain.Document, []Diagnostic, error) {
	if len(p.lines) == 0 || strings.TrimSpace(p.lines[0]) != "SPECIFICATION UPDATE" {
		return nil, nil, fmt.Errorf("specdoc: not a specification update document")
	}
	p.pos = 1
	p.doc = &domain.Document{}
	p.summaryTitle = make(map[string]string)
	p.summaryStatus = make(map[string]string)

	if err := p.parseHeader(); err != nil {
		return nil, p.diags, err
	}
	p.parseRevisions()
	p.parseSummary()
	p.parseErrata()
	p.resolveAddedIn()
	p.crossCheckSummary()
	return p.doc, p.diags, nil
}

func (p *parser) next() (string, bool) {
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		p.pos++
		return l, true
	}
	return "", false
}

func (p *parser) parseHeader() error {
	for {
		l, ok := p.next()
		if !ok {
			return fmt.Errorf("specdoc: unexpected end of document in header")
		}
		if strings.TrimSpace(l) == "" {
			continue
		}
		if strings.TrimSpace(l) == "REVISION HISTORY" {
			return p.finishHeader()
		}
		name, value, found := cutField(l)
		if !found {
			p.diag("", "bad-line", fmt.Sprintf("unparseable header line %q", l))
			continue
		}
		switch name {
		case "Vendor":
			v, err := domain.ParseVendor(value)
			if err != nil {
				return fmt.Errorf("specdoc: %w", err)
			}
			p.doc.Vendor = v
		case "Reference":
			p.doc.Reference = value
		case "Generation", "Family":
			p.doc.Label = value
		case "Released":
			t, err := parseMonth(value)
			if err != nil {
				p.diag("", "bad-date", fmt.Sprintf("release date %q", value))
			} else {
				p.doc.Released = t
			}
		default:
			p.diag("", "bad-line", fmt.Sprintf("unknown header field %q", name))
		}
	}
}

func (p *parser) finishHeader() error {
	if p.doc.Label == "" {
		return fmt.Errorf("specdoc: document without generation/family label")
	}
	key, gen, err := LabelToKey(p.doc.Vendor, p.doc.Label)
	if err != nil {
		return err
	}
	p.doc.Key = key
	p.doc.GenIndex = gen
	return nil
}

func (p *parser) parseRevisions() {
	for {
		l, ok := p.next()
		if !ok {
			return
		}
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		if t == "SUMMARY TABLE OF CHANGES" {
			return
		}
		rev, ok := parseRevisionLine(t)
		if !ok {
			p.diag("", "bad-line", fmt.Sprintf("unparseable revision line %q", t))
			continue
		}
		p.doc.Revisions = append(p.doc.Revisions, rev)
	}
}

func parseRevisionLine(l string) (domain.Revision, bool) {
	if !strings.HasPrefix(l, "Revision ") {
		return domain.Revision{}, false
	}
	rest := strings.TrimPrefix(l, "Revision ")
	open := strings.IndexByte(rest, '(')
	closeP := strings.IndexByte(rest, ')')
	if open < 0 || closeP < open {
		return domain.Revision{}, false
	}
	num, err := strconv.Atoi(strings.TrimSpace(rest[:open]))
	if err != nil {
		return domain.Revision{}, false
	}
	date, err := parseMonth(rest[open+1 : closeP])
	if err != nil {
		return domain.Revision{}, false
	}
	rev := domain.Revision{Number: num, Date: date}
	tail := strings.TrimSpace(rest[closeP+1:])
	tail = strings.TrimPrefix(tail, ":")
	tail = strings.TrimSpace(tail)
	if tail != "" {
		tail = strings.TrimPrefix(tail, "Added ")
		for _, id := range strings.Split(tail, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				rev.Added = append(rev.Added, id)
			}
		}
	}
	return rev, true
}

func (p *parser) parseSummary() {
	for {
		l, ok := p.next()
		if !ok {
			return
		}
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		if t == "ERRATA" {
			return
		}
		parts := strings.SplitN(t, "|", 3)
		if len(parts) != 3 {
			p.diag("", "bad-line", fmt.Sprintf("unparseable summary line %q", t))
			continue
		}
		id := strings.TrimSpace(parts[0])
		status := strings.TrimSpace(parts[1])
		title := strings.TrimSpace(parts[2])
		if status == "Withdrawn" {
			p.doc.Withdrawn = append(p.doc.Withdrawn, id)
			continue
		}
		p.summaryStatus[id] = status
		p.summaryTitle[id] = title
	}
}

func (p *parser) parseErrata() {
	var cur *domain.Erratum
	seenField := map[string]bool{}
	flush := func() {
		if cur != nil {
			p.doc.Errata = append(p.doc.Errata, cur)
			cur = nil
		}
	}
	for {
		l, ok := p.next()
		if !ok {
			flush()
			return
		}
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		if t == "END OF DOCUMENT" {
			flush()
			return
		}
		name, value, found := cutField(l)
		if !found {
			p.diag("", "bad-line", fmt.Sprintf("unparseable erratum line %q", t))
			continue
		}
		if name == "ID" {
			flush()
			cur = &domain.Erratum{
				DocKey: p.doc.Key,
				ID:     value,
				Seq:    len(p.doc.Errata) + 1,
			}
			seenField = map[string]bool{}
			continue
		}
		if cur == nil {
			p.diag("", "bad-line", fmt.Sprintf("field %q before any erratum", name))
			continue
		}
		if seenField[name] {
			p.diag(cur.ID, "duplicate-field", fmt.Sprintf("field %s appears twice", name))
			continue // keep the first occurrence
		}
		seenField[name] = true
		switch name {
		case "Title":
			cur.Title = value
		case "Problem":
			cur.Description = value
		case "Implication":
			cur.Implication = value
		case "Workaround":
			cur.Workaround = value
		case "Status":
			cur.Status = value
		default:
			p.diag(cur.ID, "bad-line", fmt.Sprintf("unknown erratum field %q", name))
		}
	}
}

// resolveAddedIn assigns each entry the revision it was added in, from
// the revision notes. Revision notes contain errors: an ID may be
// claimed by several revisions (keep the earliest, per the paper) or by
// none (AddedIn stays 0; the timeline stage interpolates).
func (p *parser) resolveAddedIn() {
	mentions := make(map[string][]int)
	for _, r := range p.doc.Revisions {
		for _, id := range r.Added {
			mentions[id] = append(mentions[id], r.Number)
		}
	}
	for _, ids := range mentions {
		sort.Ints(ids)
	}
	// Entries sharing an ID (reused names) consume mentions in document
	// order.
	byID := make(map[string][]*domain.Erratum)
	for _, e := range p.doc.Errata {
		byID[e.ID] = append(byID[e.ID], e)
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		entries := byID[id]
		if len(entries) > 1 {
			p.diag(id, "reused-id", fmt.Sprintf("name used by %d different errata", len(entries)))
		}
		m := mentions[id]
		switch {
		case len(m) == 0:
			for _, e := range entries {
				p.diag(id, "unmentioned-in-notes", "erratum never mentioned in the revision notes")
				e.AddedIn = 0
			}
		case len(m) >= len(entries):
			for i, e := range entries {
				e.AddedIn = m[i]
			}
			if len(m) > len(entries) {
				p.diag(id, "double-added",
					fmt.Sprintf("%d revisions claim to have added this erratum", len(m)))
			}
		default:
			// Fewer mentions than entries: share the earliest.
			for i, e := range entries {
				if i < len(m) {
					e.AddedIn = m[i]
				} else {
					e.AddedIn = m[0]
				}
			}
			p.diag(id, "double-added", "fewer revision mentions than entries sharing the name")
		}
	}
}

// crossCheckSummary verifies the summary table against the entries.
func (p *parser) crossCheckSummary() {
	// Titles per ID, precomputed: probing this map keeps the mismatch
	// check linear where a rescan of all entries per mismatch would be
	// quadratic on hostile documents.
	titlesByID := map[string]map[string]bool{}
	for _, e := range p.doc.Errata {
		if titlesByID[e.ID] == nil {
			titlesByID[e.ID] = map[string]bool{}
		}
		titlesByID[e.ID][e.Title] = true
	}
	seen := map[string]bool{}
	for _, e := range p.doc.Errata {
		seen[e.ID] = true
		title, ok := p.summaryTitle[e.ID]
		if !ok {
			p.diag(e.ID, "summary-missing", "erratum absent from the summary table")
			continue
		}
		if title != e.Title {
			// Reused names legitimately map one summary row per entry;
			// only flag when no entry matches.
			if !titlesByID[e.ID][title] {
				p.diag(e.ID, "title-mismatch", "summary title differs from erratum title")
			}
		}
	}
	ids := make([]string, 0, len(p.summaryTitle))
	for id := range p.summaryTitle {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !seen[id] {
			p.diag(id, "summary-missing", "summary row without erratum entry")
		}
	}
}

func cutField(l string) (name, value string, found bool) {
	t := strings.TrimSpace(l)
	i := strings.Index(t, ": ")
	if i < 0 {
		if strings.HasSuffix(t, ":") {
			return strings.TrimSuffix(t, ":"), "", true
		}
		return "", "", false
	}
	return t[:i], strings.TrimSpace(t[i+2:]), true
}

func parseMonth(s string) (time.Time, error) {
	return time.Parse("2006-01", strings.TrimSpace(s))
}

// LabelToKey derives the canonical document key and the Intel generation
// index from a vendor and a Table III label. Examples: Intel "1 (D)" ->
// ("intel-01d", 1); Intel "7/8" -> ("intel-07", 7); AMD "17h 30-3F" ->
// ("amd-17h-30", 0).
func LabelToKey(v domain.Vendor, label string) (string, int, error) {
	label = strings.TrimSpace(label)
	if v == domain.Intel {
		gen := label
		suffix := ""
		if i := strings.IndexByte(label, '('); i >= 0 {
			gen = strings.TrimSpace(label[:i])
			letter := strings.Trim(label[i:], "() ")
			suffix = strings.ToLower(letter)
		}
		if i := strings.IndexByte(gen, '/'); i >= 0 {
			gen = gen[:i]
		}
		n, err := strconv.Atoi(strings.TrimSpace(gen))
		if err != nil {
			return "", 0, fmt.Errorf("specdoc: bad Intel generation label %q", label)
		}
		return fmt.Sprintf("intel-%02d%s", n, suffix), n, nil
	}
	// AMD: "<family>h <model range>".
	parts := strings.Fields(label)
	if len(parts) != 2 || !strings.HasSuffix(parts[0], "h") {
		return "", 0, fmt.Errorf("specdoc: bad AMD family label %q", label)
	}
	models := parts[1]
	if i := strings.IndexByte(models, '-'); i >= 0 {
		models = models[:i]
	}
	return fmt.Sprintf("amd-%s-%s", parts[0], strings.ToLower(models)), 0, nil
}

// ParseAll parses a set of rendered documents into a database using
// all available CPUs; see ParseAllParallel for the worker knob. Order
// indices are normalized with domain.AssignOrders. Diagnostics from all
// documents are concatenated.
func ParseAll(texts map[string]string) (*domain.Database, []Diagnostic, error) {
	return ParseAllParallel(texts, 0)
}

// ParseAllParallel parses the documents with a bounded worker pool (0
// = GOMAXPROCS, 1 = sequential). Each document parses independently;
// the results are merged in sorted key order, so the database, the
// diagnostic sequence, and error behavior (diagnostics up to and
// including the first failing document) are identical to the
// sequential loop at every worker count.
func ParseAllParallel(texts map[string]string, workers int) (*domain.Database, []Diagnostic, error) {
	keys := make([]string, 0, len(texts))
	for k := range texts {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	type parsed struct {
		doc   *domain.Document
		diags []Diagnostic
		err   error
	}
	results, _ := parallel.Map(len(keys), workers, func(i int) (parsed, error) {
		doc, ds, err := Parse(texts[keys[i]])
		return parsed{doc: doc, diags: ds, err: err}, nil
	})

	db := domain.NewDatabase(taxonomy.Base())
	var diags []Diagnostic
	for i, k := range keys {
		r := results[i]
		diags = append(diags, r.diags...)
		if r.err != nil {
			return nil, diags, fmt.Errorf("specdoc: document %s: %w", k, r.err)
		}
		if err := db.Add(r.doc); err != nil {
			return nil, diags, err
		}
	}
	domain.AssignOrders(db)
	return db, diags, nil
}
