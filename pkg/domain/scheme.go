package domain

import (
	"fmt"
	"sort"
	"strings"
)

// classSpec is the static definition of one class and its abstract
// categories, used to build the base scheme.
type classSpec struct {
	kind    Kind
	suffix  string
	desc    string
	entries []entrySpec
}

type entrySpec struct {
	suffix string
	desc   string
}

// baseScheme transcribes Tables IV, V and VI of the paper.
var baseScheme = []classSpec{
	// ----- Table IV: triggers -----
	{Trigger, "MBR", "a data operation on a memory boundary", []entrySpec{
		{"cbr", "a data operation on a cache line boundary"},
		{"pgb", "a data operation on a page boundary"},
		{"mbr", "a data operation on a memory map boundary such as canonical"},
	}},
	{Trigger, "MOP", "a memory operation", []entrySpec{
		{"mmp", "a memory operation involving an interaction with a memory-mapped element"},
		{"atp", "an atomic or transactional memory operation"},
		{"fen", "a memory fence or a serializing instruction"},
		{"seg", "a condition on segment modes"},
		{"ptw", "a core page table walk"},
		{"nst", "translation on nested page tables"},
		{"flc", "flushing some cache line or TLB"},
		{"spe", "a speculative memory operation"},
	}},
	{Trigger, "FLT", "related to exceptions and faults", []entrySpec{
		{"ovf", "a counter overflow"},
		{"tmr", "a timer event"},
		{"mca", "a machine check exception"},
		{"ill", "an illegal instruction"},
	}},
	{Trigger, "PRV", "related to privilege transitions", []entrySpec{
		{"ret", "a resume from System Management or OS mode"},
		{"vmt", "a transition between hypervisor and guest"},
	}},
	{Trigger, "CFG", "related to dynamic configuration", []entrySpec{
		{"pag", "a paging mechanism interaction"},
		{"vmc", "a virtual machine configuration interaction"},
		{"wrg", "a configuration register interaction"},
	}},
	{Trigger, "POW", "related to power states", []entrySpec{
		{"pwc", "a transition between power states"},
		{"tht", "a change in thermal or power supply conditions, or throttling"},
	}},
	{Trigger, "EXT", "related to external inputs", []entrySpec{
		{"rst", "a cold or warm reset"},
		{"pci", "an interaction with PCIe"},
		{"usb", "an interaction with USB"},
		{"ram", "a specific DRAM configuration"},
		{"iom", "an access through the IOMMU"},
		{"bus", "a system bus interaction (HyperTransport, QPI, etc.)"},
	}},
	{Trigger, "FEA", "related to features", []entrySpec{
		{"fpu", "floating-point instructions"},
		{"dbg", "debug features such as breakpoints"},
		{"cid", "design identification (CPUID reports)"},
		{"mon", "monitoring (MONITOR and MWAIT)"},
		{"tra", "tracing features"},
		{"cus", "other specific features (SSE, MMX, etc.)"},
	}},

	// ----- Table V: contexts -----
	{Context, "PRV", "related to privileges", []entrySpec{
		{"boo", "booting or being in the BIOS"},
		{"vmg", "being a virtual machine guest"},
		{"rea", "operating in real mode"},
		{"vmh", "being a hypervisor"},
		{"smm", "being in SMM"},
	}},
	{Context, "FEA", "related to features", []entrySpec{
		{"sec", "a security feature enabled (SGX, SVM, etc.)"},
		{"sgc", "running in a single-core configuration"},
	}},
	{Context, "PHY", "non-digital conditions", []entrySpec{
		{"pkg", "package-specific"},
		{"tmp", "temperature-specific"},
		{"vol", "voltage-specific"},
	}},

	// ----- Table VI: observable effects -----
	{Effect, "HNG", "related to hangs", []entrySpec{
		{"unp", "an unpredictable behavior"},
		{"hng", "a hang of the processor"},
		{"crh", "a crash of the processor"},
		{"boo", "a boot failure"},
	}},
	{Effect, "FLT", "related to faults", []entrySpec{
		{"mca", "a machine check exception"},
		{"unc", "an uncorrectable error"},
		{"fsp", "one or multiple spurious faults"},
		{"fms", "one or multiple missing faults"},
		{"fid", "a wrong fault identifier or order"},
	}},
	{Effect, "CRP", "related to corruptions", []entrySpec{
		{"prf", "a wrong performance counter value"},
		{"reg", "a wrong MSR value"},
	}},
	{Effect, "EXT", "related to physical outputs", []entrySpec{
		{"pci", "issues observable on the PCIe side"},
		{"usb", "issues observable on the USB side"},
		{"mmd", "multimedia issues (e.g., audio, graphics)"},
		{"ram", "abnormal interaction with DRAM"},
		{"pow", "abnormal power consumption"},
	}},
}

// Scheme is an immutable classification scheme: the set of classes and
// abstract categories, with deterministic iteration order. Descriptors
// follow the paper's notation: a class descriptor joins a kind prefix
// (Trg, Ctx, Eff) and a class suffix (e.g. Trg_EXT); an abstract
// descriptor appends a category suffix (e.g. Trg_EXT_rst).
//
// The zero value is not usable; obtain a Scheme from BaseScheme or from
// a SchemeRegistry snapshot.
type Scheme struct {
	classes    []Class
	categories []Category
	classByID  map[string]int
	catByID    map[string]int
	catByClass map[string][]string
}

var base = buildScheme(baseScheme)

// BaseScheme returns the paper's scheme: the 60 abstract categories of
// Tables IV-VI grouped in 15 classes.
func BaseScheme() *Scheme { return base }

func buildScheme(specs []classSpec) *Scheme {
	s := &Scheme{
		classByID:  make(map[string]int),
		catByID:    make(map[string]int),
		catByClass: make(map[string][]string),
	}
	for _, cs := range specs {
		classID := cs.kind.String() + "_" + cs.suffix
		if _, dup := s.classByID[classID]; dup {
			panic("taxonomy: duplicate class " + classID)
		}
		s.classByID[classID] = len(s.classes)
		s.classes = append(s.classes, Class{
			ID:          classID,
			Kind:        cs.kind,
			Suffix:      cs.suffix,
			Description: cs.desc,
		})
		for _, e := range cs.entries {
			catID := classID + "_" + e.suffix
			if _, dup := s.catByID[catID]; dup {
				panic("taxonomy: duplicate category " + catID)
			}
			s.catByID[catID] = len(s.categories)
			s.categories = append(s.categories, Category{
				ID:          catID,
				Kind:        cs.kind,
				Class:       classID,
				Suffix:      e.suffix,
				Description: e.desc,
			})
			s.catByClass[classID] = append(s.catByClass[classID], catID)
		}
	}
	return s
}

// Classes returns all classes of kind k in definition order. With a
// negative kind it returns every class.
func (s *Scheme) Classes(k Kind) []Class {
	var out []Class
	for _, c := range s.classes {
		if k < 0 || c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// Categories returns all abstract categories of kind k in definition
// order. With a negative kind it returns every category.
func (s *Scheme) Categories(k Kind) []Category {
	var out []Category
	for _, c := range s.categories {
		if k < 0 || c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// CategoriesOf returns the abstract category IDs belonging to the given
// class descriptor, in definition order.
func (s *Scheme) CategoriesOf(classID string) []string {
	ids := s.catByClass[classID]
	out := make([]string, len(ids))
	copy(out, ids)
	return out
}

// Class looks up a class by its descriptor.
func (s *Scheme) Class(id string) (Class, bool) {
	i, ok := s.classByID[id]
	if !ok {
		return Class{}, false
	}
	return s.classes[i], true
}

// Category looks up an abstract category by its descriptor.
func (s *Scheme) Category(id string) (Category, bool) {
	i, ok := s.catByID[id]
	if !ok {
		return Category{}, false
	}
	return s.categories[i], true
}

// ClassOf returns the class descriptor of the abstract category id, or
// the empty string if id is unknown.
func (s *Scheme) ClassOf(id string) string {
	if c, ok := s.Category(id); ok {
		return c.Class
	}
	return ""
}

// NumCategories returns the number of abstract categories of kind k
// (negative for all kinds).
func (s *Scheme) NumCategories(k Kind) int {
	if k < 0 {
		return len(s.categories)
	}
	n := 0
	for _, c := range s.categories {
		if c.Kind == k {
			n++
		}
	}
	return n
}

// ParseDescriptor parses a descriptor of the form Kind_CLASS or
// Kind_CLASS_abs (e.g. "Trg_EXT" or "Trg_EXT_rst") and reports the
// kind, class descriptor and, if present, the abstract descriptor. The
// parse is purely syntactic; use Validate to also check membership in
// the scheme.
func ParseDescriptor(id string) (kind Kind, classID, categoryID string, err error) {
	parts := strings.Split(id, "_")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, "", "", fmt.Errorf("taxonomy: malformed descriptor %q", id)
	}
	kind, err = ParseKind(parts[0])
	if err != nil {
		return 0, "", "", err
	}
	if parts[1] == "" {
		return 0, "", "", fmt.Errorf("taxonomy: empty class suffix in %q", id)
	}
	classID = kind.String() + "_" + strings.ToUpper(parts[1])
	if len(parts) == 3 {
		if parts[2] == "" {
			return 0, "", "", fmt.Errorf("taxonomy: empty category suffix in %q", id)
		}
		categoryID = classID + "_" + strings.ToLower(parts[2])
	}
	return kind, classID, categoryID, nil
}

// Validate checks that id denotes a class or abstract category of the
// scheme and returns its canonical form.
func (s *Scheme) Validate(id string) (string, error) {
	_, classID, categoryID, err := ParseDescriptor(id)
	if err != nil {
		return "", err
	}
	if categoryID != "" {
		if _, ok := s.Category(categoryID); !ok {
			return "", fmt.Errorf("taxonomy: unknown abstract category %q", id)
		}
		return categoryID, nil
	}
	if _, ok := s.Class(classID); !ok {
		return "", fmt.Errorf("taxonomy: unknown class %q", id)
	}
	return classID, nil
}

// CategoryIDs returns the descriptors of all abstract categories of
// kind k (negative for all kinds), in definition order.
func (s *Scheme) CategoryIDs(k Kind) []string {
	cats := s.Categories(k)
	out := make([]string, len(cats))
	for i, c := range cats {
		out[i] = c.ID
	}
	return out
}

// ClassIDs returns the descriptors of all classes of kind k (negative
// for all kinds), in definition order.
func (s *Scheme) ClassIDs(k Kind) []string {
	cls := s.Classes(k)
	out := make([]string, len(cls))
	for i, c := range cls {
		out[i] = c.ID
	}
	return out
}

// SchemeRegistry is a mutable classification scheme. It starts from a
// copy of the base scheme and accepts new classes and abstract
// categories, supporting the paper's "cross-ISA extension" use case
// where errata of other ISAs introduce new categories.
type SchemeRegistry struct {
	specs map[string]*classSpec // keyed by class ID
	order []string
}

// NewSchemeRegistry returns a SchemeRegistry pre-populated with the
// base scheme.
func NewSchemeRegistry() *SchemeRegistry {
	r := &SchemeRegistry{specs: make(map[string]*classSpec)}
	for _, cs := range baseScheme {
		copyCS := cs
		copyCS.entries = append([]entrySpec(nil), cs.entries...)
		id := cs.kind.String() + "_" + cs.suffix
		r.specs[id] = &copyCS
		r.order = append(r.order, id)
	}
	return r
}

// AddClass registers a new class. The suffix must be non-empty,
// upper-case alphanumeric and unused for the kind.
func (r *SchemeRegistry) AddClass(k Kind, suffix, description string) error {
	if err := checkClassSuffix(suffix); err != nil {
		return err
	}
	id := k.String() + "_" + suffix
	if _, dup := r.specs[id]; dup {
		return fmt.Errorf("taxonomy: class %s already registered", id)
	}
	r.specs[id] = &classSpec{kind: k, suffix: suffix, desc: description}
	r.order = append(r.order, id)
	return nil
}

// AddCategory registers a new abstract category under an existing class
// descriptor (e.g. "Trg_EXT").
func (r *SchemeRegistry) AddCategory(classID, suffix, description string) error {
	if err := checkCategorySuffix(suffix); err != nil {
		return err
	}
	cs, ok := r.specs[classID]
	if !ok {
		return fmt.Errorf("taxonomy: unknown class %q", classID)
	}
	for _, e := range cs.entries {
		if e.suffix == suffix {
			return fmt.Errorf("taxonomy: category %s_%s already registered", classID, suffix)
		}
	}
	cs.entries = append(cs.entries, entrySpec{suffix: suffix, desc: description})
	return nil
}

// Scheme returns an immutable snapshot of the registry.
func (r *SchemeRegistry) Scheme() *Scheme {
	specs := make([]classSpec, 0, len(r.order))
	for _, id := range r.order {
		cs := *r.specs[id]
		cs.entries = append([]entrySpec(nil), r.specs[id].entries...)
		specs = append(specs, cs)
	}
	return buildScheme(specs)
}

func checkClassSuffix(s string) error {
	if len(s) < 2 || len(s) > 8 {
		return fmt.Errorf("taxonomy: class suffix %q must have 2..8 characters", s)
	}
	for _, r := range s {
		if (r < 'A' || r > 'Z') && (r < '0' || r > '9') {
			return fmt.Errorf("taxonomy: class suffix %q must be upper-case alphanumeric", s)
		}
	}
	return nil
}

func checkCategorySuffix(s string) error {
	if len(s) < 2 || len(s) > 8 {
		return fmt.Errorf("taxonomy: category suffix %q must have 2..8 characters", s)
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
			return fmt.Errorf("taxonomy: category suffix %q must be lower-case alphanumeric", s)
		}
	}
	return nil
}

// SortCategoryIDs sorts descriptors in the scheme's definition order;
// unknown descriptors sort last, alphabetically. It sorts in place and
// returns its argument for convenience.
func (s *Scheme) SortCategoryIDs(ids []string) []string {
	sort.SliceStable(ids, func(i, j int) bool {
		pi, iok := s.catByID[ids[i]]
		pj, jok := s.catByID[ids[j]]
		switch {
		case iok && jok:
			return pi < pj
		case iok:
			return true
		case jok:
			return false
		default:
			return ids[i] < ids[j]
		}
	})
	return ids
}

// Markdown renders the scheme's classes and abstract categories of one
// kind as a Markdown table in the layout of the paper's Tables IV-VI.
// With a negative kind it renders all three tables.
func (s *Scheme) Markdown(k Kind) string {
	var b strings.Builder
	kinds := []Kind{k}
	if k < 0 {
		kinds = Kinds
	}
	for _, kind := range kinds {
		fmt.Fprintf(&b, "## %s classification\n\n", titleWord(kind.Name()))
		b.WriteString("| Descriptor | Description |\n|---|---|\n")
		for _, cl := range s.Classes(kind) {
			fmt.Fprintf(&b, "| **%s** | *%s* |\n", cl.ID, cl.Description)
			for _, catID := range s.CategoriesOf(cl.ID) {
				cat, _ := s.Category(catID)
				fmt.Fprintf(&b, "| &nbsp;&nbsp;`_%s` | %s |\n", cat.Suffix, cat.Description)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func titleWord(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
