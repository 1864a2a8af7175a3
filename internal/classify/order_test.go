package classify

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/pkg/domain"
	"repro/pkg/pluginapi"
)

// TestCategoryOrder holds IncludedCategories and UndecidedPairs to the
// scheme-order rule: collect the categories holding the decision in any
// order, then sort them with the given scheme's SortCategoryIDs. The
// annotate protocol draws its random numbers in UndecidedPairs order,
// so any other order would silently change the built database.
//
// Each engine is asked in its own scheme's order and in a reordered
// one. The extended engine's scheme adds categories inside early base
// classes; in the base scheme they are unknown and sort last.
func TestCategoryOrder(t *testing.T) {
	pack, err := pluginapi.DefaultRulePack()
	if err != nil {
		t.Fatal(err)
	}
	reg := domain.NewSchemeRegistry()
	for _, c := range [][2]string{{"Trg_MBR", "zz"}, {"Eff_HNG", "zz"}} {
		if err := reg.AddCategory(c[0], c[1], "a test-only extension category"); err != nil {
			t.Fatal(err)
		}
	}
	extended := reg.Scheme()
	specs := append(append([]pluginapi.RuleSpec(nil), pack.Rules()...),
		pluginapi.RuleSpec{Kind: domain.Trigger, Category: "Trg_MBR_zz", Strong: []string{`\bprocessor\b`}},
		pluginapi.RuleSpec{Kind: domain.Effect, Category: "Eff_HNG_zz", Weak: []string{`\bmay\b`}},
	)
	extEngine, err := NewEngineFor(staticPack{specs: specs}, extended, Config{Prefilter: true, Memo: true})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name      string
		eng       *Engine
		reordered *domain.Scheme
	}{
		{"base", NewEngine(), extended},
		{"extended", extEngine, domain.BaseScheme()},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	rng := rand.New(rand.NewSource(1))
	for _, seed := range seeds {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range engines {
			ids := en.eng.Scheme().CategoryIDs(-1)
			reorderedLists := 0
			for _, e := range gt.DB.Errata() {
				rep := en.eng.Classify(e)
				for _, scheme := range []*domain.Scheme{en.eng.Scheme(), en.reordered} {
					for _, c := range []struct {
						d   Decision
						got []string
					}{
						{Include, rep.IncludedCategories(scheme)},
						{Undecided, rep.UndecidedPairs(scheme)},
					} {
						var want []string
						for _, i := range rng.Perm(len(ids)) {
							if rep.Decision(ids[i]) == c.d {
								want = append(want, ids[i])
							}
						}
						scheme.SortCategoryIDs(want)
						if !reflect.DeepEqual(c.got, want) {
							t.Fatalf("seed %d, %s engine, %s/%s: %v categories %v, want %v",
								seed, en.name, e.DocKey, e.ID, c.d, c.got, want)
						}
						if scheme == en.reordered && !reflect.DeepEqual(c.got, inOrder(rep, ids, c.d)) {
							reorderedLists++
						}
					}
				}
			}
			if en.name == "extended" && reorderedLists == 0 {
				t.Errorf("seed %d: no list of the extended engine changed order in the base scheme", seed)
			}
			t.Logf("seed %d, %s engine: %d lists reordered", seed, en.name, reorderedLists)
		}
	}
}

// inOrder lists the categories holding d in the engine scheme's order.
func inOrder(rep *Report, ids []string, d Decision) []string {
	var out []string
	for _, id := range ids {
		if rep.Decision(id) == d {
			out = append(out, id)
		}
	}
	return out
}
