package classify

import (
	"testing"

	"repro/pkg/domain"
	"repro/pkg/pluginapi"
	example "repro/plugins/rulepack/example"
)

// TestNewEngineForExamplePack compiles the third-party-style example
// plugin and checks a classification end to end, proving a pack that
// imports only pkg/ works through the explicit-selection path.
func TestNewEngineForExamplePack(t *testing.T) {
	pack, ok := pluginapi.LookupRulePack(example.Name)
	if !ok {
		t.Fatalf("example pack not registered")
	}
	e, err := NewEngineFor(pack, nil, Config{Prefilter: true, Memo: true})
	if err != nil {
		t.Fatal(err)
	}
	er := &domain.Erratum{
		DocKey:      "doc",
		ID:          "X1",
		Title:       "Processor May Hang",
		Description: "When a warm reset occurs, the processor may hang.",
	}
	rep := e.Classify(er)
	if d := rep.Decision("Trg_EXT_rst"); d != Include {
		t.Errorf("Trg_EXT_rst = %v, want Include", d)
	}
	if d := rep.Decision("Eff_HNG_hng"); d != Include {
		t.Errorf("Eff_HNG_hng = %v, want Include", d)
	}
}

// TestNewEngineForRejectsBadPacks checks compile-time validation of
// rule packs: unknown categories, unknown kinds and invalid regexes
// are reported with the pack name.
func TestNewEngineForRejectsBadPacks(t *testing.T) {
	cases := []struct {
		name string
		spec pluginapi.RuleSpec
	}{
		{"unknown category", pluginapi.RuleSpec{Kind: 0, Category: "Trg_NO_such", Strong: []string{`x`}}},
		{"unknown kind", pluginapi.RuleSpec{Kind: 7, Category: "Trg_EXT_rst", Strong: []string{`x`}}},
		{"bad regex", pluginapi.RuleSpec{Kind: 0, Category: "Trg_EXT_rst", Strong: []string{`(`}}},
	}
	for _, tc := range cases {
		_, err := NewEngineFor(staticPack{specs: []pluginapi.RuleSpec{tc.spec}}, nil, Config{})
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestNewEngineForExtendedScheme compiles a pack whose rule targets a
// category added through NewSchemeRegistry (the cross-ISA extension):
// it classifies against the extended scheme and is rejected against
// the base scheme, which lacks the category.
func TestNewEngineForExtendedScheme(t *testing.T) {
	reg := domain.NewSchemeRegistry()
	if err := reg.AddClass(domain.Trigger, "CLIC", "related to the core-local interrupt controller"); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddCategory("Trg_CLIC", "nst", "nested CLIC interrupt preemption"); err != nil {
		t.Fatal(err)
	}
	pack := staticPack{specs: []pluginapi.RuleSpec{
		{Kind: domain.Trigger, Category: "Trg_CLIC_nst", Strong: []string{`nested\s+clic\s+interrupt`}},
	}}
	e, err := NewEngineFor(pack, reg.Scheme(), Config{Prefilter: true, Memo: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Classify(&domain.Erratum{
		DocKey:      "doc",
		ID:          "R1",
		Title:       "Hart May Hang",
		Description: "When a nested CLIC interrupt preempts the resume sequence, the hart may hang.",
	})
	if d := rep.Decision("Trg_CLIC_nst"); d != Include {
		t.Errorf("Trg_CLIC_nst = %v, want Include", d)
	}
	if got := rep.IncludedCategories(e.Scheme()); len(got) != 1 || got[0] != "Trg_CLIC_nst" {
		t.Errorf("included = %v, want [Trg_CLIC_nst]", got)
	}
	if _, err := NewEngineFor(pack, domain.BaseScheme(), Config{}); err == nil {
		t.Error("base scheme accepted a rule for Trg_CLIC_nst")
	}
}

type staticPack struct{ specs []pluginapi.RuleSpec }

func (p staticPack) Info() pluginapi.Info {
	return pluginapi.Info{Name: "static", APIVersion: pluginapi.APIVersion}
}
func (p staticPack) Rules() []pluginapi.RuleSpec { return p.specs }
