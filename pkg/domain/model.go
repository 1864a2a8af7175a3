package domain

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Vendor identifies a microprocessor vendor.
type Vendor int

const (
	// Intel covers the Intel Core generations 1-12 studied in the paper.
	Intel Vendor = iota
	// AMD covers the AMD families 10h-19h studied in the paper.
	AMD
)

// Vendors lists all vendors in canonical order.
var Vendors = []Vendor{Intel, AMD}

// String returns the vendor name.
func (v Vendor) String() string {
	switch v {
	case Intel:
		return "Intel"
	case AMD:
		return "AMD"
	default:
		return fmt.Sprintf("Vendor(%d)", int(v))
	}
}

// ParseVendor converts a vendor name (case-insensitive) into a Vendor.
func ParseVendor(s string) (Vendor, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "intel":
		return Intel, nil
	case "amd":
		return AMD, nil
	default:
		return 0, fmt.Errorf("core: unknown vendor %q", s)
	}
}

// WorkaroundCategory classifies the suggested workaround of an erratum by
// where it must be applied (Section IV-B3 of the paper).
type WorkaroundCategory int

const (
	// WorkaroundNone means the vendor identified no workaround.
	WorkaroundNone WorkaroundCategory = iota
	// WorkaroundBIOS means the BIOS can contain the workaround.
	WorkaroundBIOS
	// WorkaroundSoftware means system software must apply the workaround.
	WorkaroundSoftware
	// WorkaroundPeripherals means peripherals must behave in a specific way.
	WorkaroundPeripherals
	// WorkaroundAbsent means a workaround exists but the erratum gives no
	// specific information ("contact your representative...").
	WorkaroundAbsent
	// WorkaroundDocFix means the behavior was correct and only the
	// documentation is fixed (<0.5% of errata).
	WorkaroundDocFix
)

// WorkaroundCategories lists all workaround categories in canonical order.
var WorkaroundCategories = []WorkaroundCategory{
	WorkaroundNone, WorkaroundBIOS, WorkaroundSoftware,
	WorkaroundPeripherals, WorkaroundAbsent, WorkaroundDocFix,
}

// String returns the category label used in Figure 6.
func (w WorkaroundCategory) String() string {
	switch w {
	case WorkaroundNone:
		return "None"
	case WorkaroundBIOS:
		return "BIOS"
	case WorkaroundSoftware:
		return "Software"
	case WorkaroundPeripherals:
		return "Peripherals"
	case WorkaroundAbsent:
		return "Absent"
	case WorkaroundDocFix:
		return "DocumentationFix"
	default:
		return fmt.Sprintf("WorkaroundCategory(%d)", int(w))
	}
}

// ParseWorkaroundCategory converts a label into a WorkaroundCategory.
func ParseWorkaroundCategory(s string) (WorkaroundCategory, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return WorkaroundNone, nil
	case "bios":
		return WorkaroundBIOS, nil
	case "software":
		return WorkaroundSoftware, nil
	case "peripherals":
		return WorkaroundPeripherals, nil
	case "absent":
		return WorkaroundAbsent, nil
	case "documentationfix", "docfix":
		return WorkaroundDocFix, nil
	default:
		return 0, fmt.Errorf("core: unknown workaround category %q", s)
	}
}

// FixStatus captures the status field of an erratum.
type FixStatus int

const (
	// FixNone means no fix is planned; the bug remains for the lifetime
	// of the affected parts.
	FixNone FixStatus = iota
	// FixPlanned means the vendor announced a fix for a future stepping.
	FixPlanned
	// FixDone means the root cause was fixed in a later stepping.
	FixDone
)

// FixStatuses lists all fix statuses in canonical order.
var FixStatuses = []FixStatus{FixNone, FixPlanned, FixDone}

// String returns the status label.
func (f FixStatus) String() string {
	switch f {
	case FixNone:
		return "NoFixPlanned"
	case FixPlanned:
		return "FixPlanned"
	case FixDone:
		return "Fixed"
	default:
		return fmt.Sprintf("FixStatus(%d)", int(f))
	}
}

// ParseFixStatus converts a status label into a FixStatus.
func ParseFixStatus(s string) (FixStatus, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "nofixplanned", "nofix", "no fix planned":
		return FixNone, nil
	case "fixplanned", "fix planned":
		return FixPlanned, nil
	case "fixed":
		return FixDone, nil
	default:
		return 0, fmt.Errorf("core: unknown fix status %q", s)
	}
}

// Item is one annotated property of an erratum: an abstract taxonomy
// category together with the concrete, erratum-specific description.
type Item struct {
	// Category is the abstract descriptor, e.g. "Trg_POW_pwc".
	Category string
	// Concrete is the concrete-level description, e.g. "the core
	// resumes from the C6 power state".
	Concrete string
}

// Annotation carries the full RemembERR classification of an erratum.
// Triggers are conjunctive; Contexts and Effects are disjunctive.
type Annotation struct {
	Triggers []Item
	Contexts []Item
	Effects  []Item
	// MSRs lists model-specific registers in which an effect of the
	// erratum is observable (Figure 19), e.g. "MCx_STATUS".
	MSRs []string
	// ComplexConditions is set when the erratum states that a "complex
	// set of conditions" is required (8.7% Intel, 20.8% AMD).
	ComplexConditions bool
	// TrivialTrigger is set when the erratum specifies no clear trigger
	// or only trivial ones (loads/stores, intense workloads); such
	// errata are excluded from Figure 11 (14.4% of the corpus).
	TrivialTrigger bool
	// SimulationOnly is set when the erratum states that the bug has
	// only been observed in simulation (five AMD and one Intel erratum
	// in the paper's corpus).
	SimulationOnly bool
}

// Items returns the items of the given kind.
func (a *Annotation) Items(k Kind) []Item {
	switch k {
	case Trigger:
		return a.Triggers
	case Context:
		return a.Contexts
	case Effect:
		return a.Effects
	default:
		return nil
	}
}

// SetItems replaces the items of the given kind.
func (a *Annotation) SetItems(k Kind, items []Item) {
	switch k {
	case Trigger:
		a.Triggers = items
	case Context:
		a.Contexts = items
	case Effect:
		a.Effects = items
	}
}

// Categories returns the abstract descriptors of the given kind, sorted
// in scheme order and deduplicated.
func (a *Annotation) Categories(k Kind, scheme *Scheme) []string {
	items := a.Items(k)
	seen := make(map[string]bool, len(items))
	var out []string
	for _, it := range items {
		if !seen[it.Category] {
			seen[it.Category] = true
			out = append(out, it.Category)
		}
	}
	return scheme.SortCategoryIDs(out)
}

// Classes returns the class descriptors of the given kind, sorted and
// deduplicated.
func (a *Annotation) Classes(k Kind, scheme *Scheme) []string {
	seen := make(map[string]bool)
	var out []string
	for _, it := range a.Items(k) {
		cl := scheme.ClassOf(it.Category)
		if cl != "" && !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	sort.Strings(out)
	return out
}

// Has reports whether the annotation carries the given abstract category
// in any dimension.
func (a *Annotation) Has(categoryID string) bool {
	for _, k := range Kinds {
		for _, it := range a.Items(k) {
			if it.Category == categoryID {
				return true
			}
		}
	}
	return false
}

// Validate checks that every item references a known abstract category
// of the scheme and that kinds are consistent.
func (a *Annotation) Validate(scheme *Scheme) error {
	for _, k := range Kinds {
		for _, it := range a.Items(k) {
			cat, ok := scheme.Category(it.Category)
			if !ok {
				return fmt.Errorf("core: unknown category %q in %s items", it.Category, k.Name())
			}
			if cat.Kind != k {
				return fmt.Errorf("core: category %q is a %s but annotated as %s",
					it.Category, cat.Kind.Name(), k.Name())
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the annotation.
func (a *Annotation) Clone() Annotation {
	c := Annotation{
		ComplexConditions: a.ComplexConditions,
		TrivialTrigger:    a.TrivialTrigger,
		SimulationOnly:    a.SimulationOnly,
	}
	c.Triggers = append([]Item(nil), a.Triggers...)
	c.Contexts = append([]Item(nil), a.Contexts...)
	c.Effects = append([]Item(nil), a.Effects...)
	c.MSRs = append([]string(nil), a.MSRs...)
	return c
}

// Erratum is a single erratum entry of a specification-update document,
// together with RemembERR's structured metadata and annotation.
type Erratum struct {
	// DocKey identifies the document this entry belongs to.
	DocKey string
	// ID is the vendor identifier, e.g. "SKL085" (Intel) or "1361" (AMD).
	ID string
	// Seq is the sequential position of the erratum in the document
	// (1-based); vendors number errata sequentially.
	Seq int
	// Title is the erratum title.
	Title string
	// Description is the problem-description field.
	Description string
	// Implication is the implications field.
	Implication string
	// Workaround is the workaround field text.
	Workaround string
	// Status is the raw status field text.
	Status string

	// WorkaroundCat is the workaround classified by where it applies.
	WorkaroundCat WorkaroundCategory
	// Fix captures whether the root cause has been or will be fixed.
	Fix FixStatus

	// AddedIn is the document revision in which this erratum first
	// appeared (0 if the revision summary does not say).
	AddedIn int
	// Disclosed is the inferred disclosure date (zero if not yet
	// inferred); see internal/timeline.
	Disclosed time.Time

	// Key is the unique cluster key shared with identical errata in
	// other documents (empty before deduplication); see internal/dedup.
	Key string

	// Ann is the RemembERR annotation.
	Ann Annotation
}

// FullID returns the globally unique identifier of this entry
// ("docKey/ID").
func (e *Erratum) FullID() string { return e.DocKey + "/" + e.ID }

// Clone returns a deep copy of the erratum.
func (e *Erratum) Clone() *Erratum {
	c := *e
	c.Ann = e.Ann.Clone()
	return &c
}

// DocKeyVendor derives the vendor namespace from the document key prefix
// so that Intel and AMD keys never collide even if the dedup stage
// assigned overlapping key strings.
func (e *Erratum) DocKeyVendor() string {
	if i := strings.IndexByte(e.DocKey, '-'); i > 0 {
		return e.DocKey[:i]
	}
	return e.DocKey
}

// Revision is one revision of a specification-update document.
type Revision struct {
	// Number is the revision number within the document (1-based).
	Number int
	// Date is the release/update date of the revision.
	Date time.Time
	// Added lists the erratum IDs the summary of changes reports as
	// added in this revision. Documents contain errors: IDs can appear
	// in several revisions or in none.
	Added []string
}

// Document is a parsed specification-update document.
type Document struct {
	// Key uniquely identifies the document, e.g. "intel-06" or "amd-17h-00".
	Key string
	// Vendor is the document's vendor.
	Vendor Vendor
	// Label is the human-readable generation or family label from
	// Table III, e.g. "6" or "1 (D)" for Intel, "17h 00-0F" for AMD.
	Label string
	// Reference is the vendor document reference, e.g. "332689-028US".
	Reference string
	// Order is the chronological order index of the document within its
	// vendor (0-based); used by heredity analyses.
	Order int
	// GenIndex is the generation number for Intel documents (1..12); 0
	// for AMD documents, which have no comparable chronological axis.
	GenIndex int
	// Released is the initial release date of the CPU series the
	// document covers.
	Released time.Time
	// Revisions lists the revision history in ascending order.
	Revisions []Revision
	// Errata lists the errata in document order.
	Errata []*Erratum
	// Withdrawn lists erratum IDs that appear in the summary of changes
	// with their details removed (about 2% of errata; typically bugs
	// fixed by a re-spin, see Section VII of the paper).
	Withdrawn []string
}

// Orders returns the chronological Order index of every document,
// keyed by document key: per vendor, documents are sorted by generation
// index, release date and key. It writes nothing to the documents, so
// it can order a set that shares documents with a published snapshot.
func Orders(docs map[string]*Document) map[string]int {
	byVendor := make(map[Vendor][]*Document)
	for _, d := range docs {
		byVendor[d.Vendor] = append(byVendor[d.Vendor], d)
	}
	orders := make(map[string]int, len(docs))
	for _, vd := range byVendor {
		sort.Slice(vd, func(i, j int) bool {
			if vd[i].GenIndex != vd[j].GenIndex {
				return vd[i].GenIndex < vd[j].GenIndex
			}
			if !vd[i].Released.Equal(vd[j].Released) {
				return vd[i].Released.Before(vd[j].Released)
			}
			return vd[i].Key < vd[j].Key
		})
		for i, d := range vd {
			orders[d.Key] = i
		}
	}
	return orders
}

// AssignOrders sets the Order index of every document from Orders. The
// generator, the parsing pipeline and streaming ingest all use this
// rule, so order indices agree regardless of how the database was
// obtained.
func AssignOrders(db *Database) {
	orders := Orders(db.Docs)
	for _, d := range db.Docs {
		d.Order = orders[d.Key]
	}
}

// Revision returns the revision with the given number, or nil.
func (d *Document) Revision(n int) *Revision {
	for i := range d.Revisions {
		if d.Revisions[i].Number == n {
			return &d.Revisions[i]
		}
	}
	return nil
}

// LatestRevision returns the highest revision, or nil for an empty history.
func (d *Document) LatestRevision() *Revision {
	if len(d.Revisions) == 0 {
		return nil
	}
	latest := &d.Revisions[0]
	for i := range d.Revisions {
		if d.Revisions[i].Number > latest.Number {
			latest = &d.Revisions[i]
		}
	}
	return latest
}

// Erratum returns the entry with the given vendor ID, or nil. If several
// entries share the ID (an "errata in errata" case), the first is
// returned.
func (d *Document) Erratum(id string) *Erratum {
	for _, e := range d.Errata {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Database is the RemembERR database: all parsed documents with their
// errata, plus the classification scheme in force.
type Database struct {
	// Docs holds all documents keyed by Document.Key.
	Docs map[string]*Document
	// Scheme is the taxonomy scheme used by all annotations.
	Scheme *Scheme
}

// NewDatabase returns an empty database using the given scheme, such
// as BaseScheme() for the paper's scheme.
func NewDatabase(scheme *Scheme) *Database {
	return &Database{
		Docs:   make(map[string]*Document),
		Scheme: scheme,
	}
}

// Add inserts a document. It returns an error on duplicate keys.
func (db *Database) Add(d *Document) error {
	if d.Key == "" {
		return fmt.Errorf("core: document with empty key")
	}
	if _, dup := db.Docs[d.Key]; dup {
		return fmt.Errorf("core: duplicate document key %q", d.Key)
	}
	db.Docs[d.Key] = d
	return nil
}

// Documents returns all documents sorted by vendor then order index.
func (db *Database) Documents() []*Document {
	out := make([]*Document, 0, len(db.Docs))
	for _, d := range db.Docs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Vendor != out[j].Vendor {
			return out[i].Vendor < out[j].Vendor
		}
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// VendorDocuments returns the documents of one vendor in order.
func (db *Database) VendorDocuments(v Vendor) []*Document {
	var out []*Document
	for _, d := range db.Documents() {
		if d.Vendor == v {
			out = append(out, d)
		}
	}
	return out
}

// Errata returns every erratum entry (duplicates counted individually, as
// in the raw corpus), in document order.
func (db *Database) Errata() []*Erratum {
	var out []*Erratum
	for _, d := range db.Documents() {
		out = append(out, d.Errata...)
	}
	return out
}

// VendorErrata returns every entry of one vendor in document order.
func (db *Database) VendorErrata(v Vendor) []*Erratum {
	var out []*Erratum
	for _, d := range db.VendorDocuments(v) {
		out = append(out, d.Errata...)
	}
	return out
}

// Unique returns one representative entry per unique key, preferring the
// earliest occurrence (lowest document order, then lowest Seq). Entries
// without a key (not yet deduplicated) are each their own representative.
func (db *Database) Unique() []*Erratum {
	type slot struct {
		e     *Erratum
		order int
	}
	type clusterID struct{ vendor, key string }
	best := make(map[clusterID]slot)
	var keyless []*Erratum
	for _, d := range db.Documents() {
		for _, e := range d.Errata {
			if e.Key == "" {
				keyless = append(keyless, e)
				continue
			}
			k := clusterID{e.DocKeyVendor(), e.Key}
			s, ok := best[k]
			if !ok || d.Order < s.order || (d.Order == s.order && e.Seq < s.e.Seq) {
				best[k] = slot{e: e, order: d.Order}
			}
		}
	}
	out := make([]*Erratum, 0, len(best)+len(keyless))
	for _, s := range best {
		out = append(out, s.e)
	}
	out = append(out, keyless...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].DocKey != out[j].DocKey {
			return out[i].DocKey < out[j].DocKey
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// UniqueVendor returns one representative per unique key for one vendor.
func (db *Database) UniqueVendor(v Vendor) []*Erratum {
	var out []*Erratum
	for _, e := range db.Unique() {
		if d := db.Docs[e.DocKey]; d != nil && d.Vendor == v {
			out = append(out, e)
		}
	}
	return out
}

// Occurrences returns, for each unique key of vendor v, all entries
// bearing that key, in document order. The map keys are cluster keys.
func (db *Database) Occurrences(v Vendor) map[string][]*Erratum {
	out := make(map[string][]*Erratum)
	for _, d := range db.VendorDocuments(v) {
		for _, e := range d.Errata {
			if e.Key != "" {
				out[e.Key] = append(out[e.Key], e)
			}
		}
	}
	return out
}

// Stats summarizes corpus-level counts (Section IV-A of the paper).
type Stats struct {
	Total        int // all entries, duplicates counted individually
	IntelTotal   int
	AMDTotal     int
	Unique       int // unique cluster keys across both vendors
	IntelUnique  int
	AMDUnique    int
	Documents    int
	IntelDocs    int
	AMDDocs      int
	Annotated    int // unique errata with a non-empty annotation
	Unclassified int // unique errata with an empty annotation
}

// ComputeStats recomputes corpus statistics from the database.
func (db *Database) ComputeStats() Stats {
	u := db.Unique()
	return db.StatsOf(len(u), func(i int) *Erratum { return u[i] })
}

// StatsOf computes the corpus statistics of db given its n unique
// representatives, rep(i) being the i-th in any order. ComputeStats
// passes db.Unique(); an index passes its precomputed list, so the
// statistics cost no Unique pass.
func (db *Database) StatsOf(n int, rep func(i int) *Erratum) Stats {
	var s Stats
	for _, d := range db.Docs {
		s.Documents++
		if d.Vendor == Intel {
			s.IntelDocs++
			s.IntelTotal += len(d.Errata)
		} else {
			s.AMDDocs++
			s.AMDTotal += len(d.Errata)
		}
		s.Total += len(d.Errata)
	}
	// Split by vendor as UniqueVendor splits it.
	for i := 0; i < n; i++ {
		e := rep(i)
		d := db.Docs[e.DocKey]
		if d == nil || (d.Vendor != Intel && d.Vendor != AMD) {
			continue
		}
		if d.Vendor == Intel {
			s.IntelUnique++
		} else {
			s.AMDUnique++
		}
		if len(e.Ann.Triggers)+len(e.Ann.Contexts)+len(e.Ann.Effects) > 0 {
			s.Annotated++
		} else {
			s.Unclassified++
		}
	}
	s.Unique = s.IntelUnique + s.AMDUnique
	return s
}

// Validate checks referential integrity: document keys on errata match
// their containing document, IDs are non-empty, and annotations are
// valid against the scheme.
func (db *Database) Validate() error {
	for key, d := range db.Docs {
		if d.Key != key {
			return fmt.Errorf("core: document indexed as %q has key %q", key, d.Key)
		}
		for _, e := range d.Errata {
			if e.DocKey != d.Key {
				return fmt.Errorf("core: erratum %s in document %s has DocKey %q", e.ID, d.Key, e.DocKey)
			}
			if e.ID == "" {
				return fmt.Errorf("core: erratum with empty ID in document %s", d.Key)
			}
			if err := e.Ann.Validate(db.Scheme); err != nil {
				return fmt.Errorf("core: erratum %s: %w", e.FullID(), err)
			}
		}
	}
	return nil
}
