package domain_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/pkg/domain"
)

func TestBaseCounts(t *testing.T) {
	s := domain.BaseScheme()
	// The paper defines 60 abstract categories in total.
	if got := s.NumCategories(-1); got != 60 {
		t.Fatalf("total abstract categories = %d, want 60", got)
	}
	cases := []struct {
		kind       domain.Kind
		classes    int
		categories int
	}{
		{domain.Trigger, 8, 34},
		{domain.Context, 3, 10},
		{domain.Effect, 4, 16},
	}
	for _, c := range cases {
		if got := len(s.Classes(c.kind)); got != c.classes {
			t.Errorf("%s classes = %d, want %d", c.kind.Name(), got, c.classes)
		}
		if got := s.NumCategories(c.kind); got != c.categories {
			t.Errorf("%s categories = %d, want %d", c.kind.Name(), got, c.categories)
		}
	}
}

func TestBaseWellFormed(t *testing.T) {
	s := domain.BaseScheme()
	for _, c := range s.Classes(-1) {
		if !strings.HasPrefix(c.ID, c.Kind.String()+"_") {
			t.Errorf("class %s: prefix does not match kind %s", c.ID, c.Kind)
		}
		if c.Description == "" {
			t.Errorf("class %s: empty description", c.ID)
		}
		if len(s.CategoriesOf(c.ID)) == 0 {
			t.Errorf("class %s: no abstract categories", c.ID)
		}
	}
	for _, cat := range s.Categories(-1) {
		cl, ok := s.Class(cat.Class)
		if !ok {
			t.Errorf("category %s: unknown class %s", cat.ID, cat.Class)
			continue
		}
		if cl.Kind != cat.Kind {
			t.Errorf("category %s: kind %v differs from class kind %v", cat.ID, cat.Kind, cl.Kind)
		}
		if cat.ID != cat.Class+"_"+cat.Suffix {
			t.Errorf("category %s: ID is not class+suffix", cat.ID)
		}
		if cat.Description == "" {
			t.Errorf("category %s: empty description", cat.ID)
		}
	}
}

func TestKnownDescriptors(t *testing.T) {
	s := domain.BaseScheme()
	// Spot-check descriptors used throughout the paper.
	known := []string{
		"Trg_CFG_wrg", "Trg_POW_tht", "Trg_POW_pwc", "Trg_EXT_rst",
		"Trg_EXT_pci", "Trg_FEA_dbg", "Trg_PRV_vmt", "Trg_FEA_fpu",
		"Ctx_PRV_vmg", "Ctx_PRV_rea", "Ctx_PHY_tmp",
		"Eff_CRP_reg", "Eff_HNG_hng", "Eff_HNG_unp", "Eff_FLT_fsp",
		"Eff_CRP_prf", "Eff_FLT_mca",
	}
	for _, id := range known {
		if _, ok := s.Category(id); !ok {
			t.Errorf("missing abstract category %s", id)
		}
	}
	for _, id := range []string{"Trg_MBR", "Trg_MOP", "Trg_FLT", "Trg_PRV",
		"Trg_CFG", "Trg_POW", "Trg_EXT", "Trg_FEA",
		"Ctx_PRV", "Ctx_FEA", "Ctx_PHY",
		"Eff_HNG", "Eff_FLT", "Eff_CRP", "Eff_EXT"} {
		if _, ok := s.Class(id); !ok {
			t.Errorf("missing class %s", id)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in        string
		kind      domain.Kind
		classID   string
		catID     string
		shouldErr bool
	}{
		{"Trg_EXT_rst", domain.Trigger, "Trg_EXT", "Trg_EXT_rst", false},
		{"trg_ext_RST", domain.Trigger, "Trg_EXT", "Trg_EXT_rst", false},
		{"Eff_CRP", domain.Effect, "Eff_CRP", "", false},
		{"Ctx_PRV_vmg", domain.Context, "Ctx_PRV", "Ctx_PRV_vmg", false},
		{"bogus", 0, "", "", true},
		{"Xyz_ABC_def", 0, "", "", true},
		{"Trg", 0, "", "", true},
		{"Trg_", 0, "", "", true},
		{"Trg_EXT_", 0, "", "", true},
		{"Trg_EXT_rst_extra", 0, "", "", true},
	}
	for _, c := range cases {
		kind, classID, catID, err := domain.ParseDescriptor(c.in)
		if c.shouldErr {
			if err == nil {
				t.Errorf("ParseDescriptor(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDescriptor(%q): %v", c.in, err)
			continue
		}
		if kind != c.kind || classID != c.classID || catID != c.catID {
			t.Errorf("ParseDescriptor(%q) = (%v,%q,%q), want (%v,%q,%q)",
				c.in, kind, classID, catID, c.kind, c.classID, c.catID)
		}
	}
}

func TestValidate(t *testing.T) {
	s := domain.BaseScheme()
	if got, err := s.Validate("trg_pow_PWC"); err != nil || got != "Trg_POW_pwc" {
		t.Errorf("Validate canonicalization = (%q,%v), want (Trg_POW_pwc,nil)", got, err)
	}
	if got, err := s.Validate("eff_hng"); err != nil || got != "Eff_HNG" {
		t.Errorf("Validate class = (%q,%v), want (Eff_HNG,nil)", got, err)
	}
	if _, err := s.Validate("Trg_POW_xxx"); err == nil {
		t.Error("Validate accepted unknown category")
	}
	if _, err := s.Validate("Trg_XXX"); err == nil {
		t.Error("Validate accepted unknown class")
	}
}

func TestClassOf(t *testing.T) {
	s := domain.BaseScheme()
	if got := s.ClassOf("Trg_MOP_spe"); got != "Trg_MOP" {
		t.Errorf("ClassOf(Trg_MOP_spe) = %q", got)
	}
	if got := s.ClassOf("nonsense"); got != "" {
		t.Errorf("ClassOf(nonsense) = %q, want empty", got)
	}
}

func TestCategoriesOfIsCopy(t *testing.T) {
	s := domain.BaseScheme()
	a := s.CategoriesOf("Trg_EXT")
	if len(a) != 6 {
		t.Fatalf("Trg_EXT has %d categories, want 6", len(a))
	}
	a[0] = "mutated"
	b := s.CategoriesOf("Trg_EXT")
	if b[0] == "mutated" {
		t.Error("CategoriesOf returned shared backing array")
	}
}

func TestRegistryExtension(t *testing.T) {
	r := domain.NewSchemeRegistry()
	if err := r.AddClass(domain.Trigger, "VEC", "related to vector extensions"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCategory("Trg_VEC", "sve", "an SVE instruction interaction"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCategory("Trg_EXT", "cxl", "an interaction with CXL"); err != nil {
		t.Fatal(err)
	}
	s := r.Scheme()
	if _, ok := s.Category("Trg_VEC_sve"); !ok {
		t.Error("extended category Trg_VEC_sve missing")
	}
	if _, ok := s.Category("Trg_EXT_cxl"); !ok {
		t.Error("extended category Trg_EXT_cxl missing")
	}
	if got := s.NumCategories(-1); got != 62 {
		t.Errorf("extended scheme has %d categories, want 62", got)
	}
	// Base scheme must be unaffected by extension.
	if _, ok := domain.BaseScheme().Category("Trg_VEC_sve"); ok {
		t.Error("registry extension leaked into Base scheme")
	}
}

func TestRegistryRejections(t *testing.T) {
	r := domain.NewSchemeRegistry()
	if err := r.AddClass(domain.Trigger, "EXT", "dup"); err == nil {
		t.Error("AddClass accepted duplicate class")
	}
	if err := r.AddClass(domain.Trigger, "bad", "lower-case"); err == nil {
		t.Error("AddClass accepted lower-case suffix")
	}
	if err := r.AddClass(domain.Trigger, "X", "too short"); err == nil {
		t.Error("AddClass accepted 1-char suffix")
	}
	if err := r.AddCategory("Trg_EXT", "rst", "dup"); err == nil {
		t.Error("AddCategory accepted duplicate category")
	}
	if err := r.AddCategory("Trg_NOPE", "abc", "missing class"); err == nil {
		t.Error("AddCategory accepted unknown class")
	}
	if err := r.AddCategory("Trg_EXT", "BAD", "upper-case"); err == nil {
		t.Error("AddCategory accepted upper-case suffix")
	}
}

func TestSortCategoryIDs(t *testing.T) {
	s := domain.BaseScheme()
	ids := []string{"Eff_CRP_reg", "Trg_MBR_cbr", "zzz_unknown", "Ctx_PRV_boo", "aaa_unknown"}
	s.SortCategoryIDs(ids)
	want := []string{"Trg_MBR_cbr", "Ctx_PRV_boo", "Eff_CRP_reg", "aaa_unknown", "zzz_unknown"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted[%d] = %q, want %q (full: %v)", i, ids[i], want[i], ids)
		}
	}
}

// Property: every valid descriptor round-trips through ParseDescriptor and Validate.
func TestPropertyDescriptorRoundTrip(t *testing.T) {
	s := domain.BaseScheme()
	cats := s.Categories(-1)
	f := func(idx uint) bool {
		cat := cats[idx%uint(len(cats))]
		got, err := s.Validate(cat.ID)
		if err != nil || got != cat.ID {
			return false
		}
		// Lower-casing the whole descriptor must still canonicalize.
		got, err = s.Validate(strings.ToLower(cat.ID))
		return err == nil && got == cat.ID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SortCategoryIDs is idempotent and a permutation.
func TestPropertySortIdempotent(t *testing.T) {
	s := domain.BaseScheme()
	all := s.CategoryIDs(-1)
	f := func(perm []uint8) bool {
		// Build an arbitrary multiset of category IDs from the seed bytes.
		ids := make([]string, 0, len(perm))
		for _, p := range perm {
			ids = append(ids, all[int(p)%len(all)])
		}
		once := append([]string(nil), ids...)
		s.SortCategoryIDs(once)
		twice := append([]string(nil), once...)
		s.SortCategoryIDs(twice)
		if len(once) != len(ids) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		// Permutation check via counting.
		count := map[string]int{}
		for _, id := range ids {
			count[id]++
		}
		for _, id := range once {
			count[id]--
		}
		for _, v := range count {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarkdownRendering(t *testing.T) {
	s := domain.BaseScheme()
	md := s.Markdown(domain.Trigger)
	for _, want := range []string{"## Trigger classification", "**Trg_EXT**", "`_rst`", "cold or warm reset"} {
		if !strings.Contains(md, want) {
			t.Errorf("trigger markdown missing %q", want)
		}
	}
	if strings.Contains(md, "Ctx_") {
		t.Error("trigger markdown contains contexts")
	}
	all := s.Markdown(-1)
	for _, want := range []string{"## Trigger classification", "## Context classification", "## Effect classification"} {
		if !strings.Contains(all, want) {
			t.Errorf("full markdown missing %q", want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if domain.Trigger.String() != "Trg" || domain.Context.String() != "Ctx" || domain.Effect.String() != "Eff" {
		t.Error("kind prefixes wrong")
	}
	if domain.Trigger.Name() != "trigger" || domain.Context.Name() != "context" || domain.Effect.Name() != "effect" {
		t.Error("kind names wrong")
	}
	if k, err := domain.ParseKind("TRG"); err != nil || k != domain.Trigger {
		t.Error("ParseKind(TRG) failed")
	}
	if _, err := domain.ParseKind("zzz"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}
