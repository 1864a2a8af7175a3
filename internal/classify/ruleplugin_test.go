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
	if d := rep.Decisions["Trg_EXT_rst"]; d != Include {
		t.Errorf("Trg_EXT_rst = %v, want Include", d)
	}
	if d := rep.Decisions["Eff_HNG_hng"]; d != Include {
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

type staticPack struct{ specs []pluginapi.RuleSpec }

func (p staticPack) Info() pluginapi.Info {
	return pluginapi.Info{Name: "static", APIVersion: pluginapi.APIVersion}
}
func (p staticPack) Rules() []pluginapi.RuleSpec { return p.specs }
