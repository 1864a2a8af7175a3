package dut

import (
	"math/rand"
	"testing"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

func twoBugDUT(t *testing.T) *DUT {
	t.Helper()
	bugs := []Bug{
		{
			ID:       "B1",
			Triggers: []string{"Trg_POW_pwc", "Trg_EXT_pci"},
			Contexts: []string{"Ctx_PRV_vmg"},
			Effects:  []string{"Eff_HNG_hng"},
			MSRs:     []string{"MCx_STATUS"},
		},
		{
			ID:       "B2",
			Triggers: []string{"Trg_CFG_wrg"},
			Effects:  []string{"Eff_CRP_reg"},
		},
	}
	d, err := New(bugs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExecuteConjunctiveTriggers(t *testing.T) {
	d := twoBugDUT(t)
	// Only one of B1's two triggers: nothing happens.
	r := d.Execute(Stimulus{
		Triggers: []string{"Trg_POW_pwc"},
		Context:  "Ctx_PRV_vmg",
		Monitors: []string{"Eff_HNG_hng"},
	})
	if len(r.Triggered) != 0 {
		t.Errorf("partial trigger set triggered %v", r.Triggered)
	}
	// Both triggers, right context, monitored effect: detected.
	r = d.Execute(Stimulus{
		Triggers: []string{"Trg_POW_pwc", "Trg_EXT_pci"},
		Context:  "Ctx_PRV_vmg",
		Monitors: []string{"Eff_HNG_hng"},
	})
	if len(r.Triggered) != 1 || len(r.Detected) != 1 || r.Detected[0] != "B1" {
		t.Errorf("result = %+v", r)
	}
}

func TestExecuteContextDisjunctive(t *testing.T) {
	d := twoBugDUT(t)
	// Wrong context: B1 does not trigger.
	r := d.Execute(Stimulus{
		Triggers: []string{"Trg_POW_pwc", "Trg_EXT_pci"},
		Context:  "Ctx_PRV_smm",
		Monitors: []string{"Eff_HNG_hng"},
	})
	if len(r.Triggered) != 0 {
		t.Errorf("wrong context triggered %v", r.Triggered)
	}
	// B2 has no context constraint: any context works.
	r = d.Execute(Stimulus{
		Triggers: []string{"Trg_CFG_wrg"},
		Context:  "Ctx_PRV_smm",
		Monitors: []string{"Eff_CRP_reg"},
	})
	if len(r.Detected) != 1 || r.Detected[0] != "B2" {
		t.Errorf("context-free bug not detected: %+v", r)
	}
}

func TestObservationRequired(t *testing.T) {
	d := twoBugDUT(t)
	// Triggered but no monitored effect: missed detection.
	r := d.Execute(Stimulus{
		Triggers: []string{"Trg_POW_pwc", "Trg_EXT_pci"},
		Context:  "Ctx_PRV_vmg",
		Monitors: []string{"Eff_FLT_mca"},
	})
	if len(r.Triggered) != 1 || len(r.Detected) != 0 {
		t.Errorf("result = %+v, want triggered-but-undetected", r)
	}
	// MSR witness suffices for detection.
	r = d.Execute(Stimulus{
		Triggers: []string{"Trg_POW_pwc", "Trg_EXT_pci"},
		Context:  "Ctx_PRV_vmg",
		Monitors: []string{"MCx_STATUS"},
	})
	if len(r.Detected) != 1 {
		t.Errorf("MSR monitor missed: %+v", r)
	}
}

func TestBudgetsEnforced(t *testing.T) {
	bugs := []Bug{{
		ID:       "B",
		Triggers: []string{"T1", "T2", "T3", "T4", "T5"},
		Effects:  []string{"E1"},
	}}
	d, err := New(bugs, Config{ObservationBudget: 1, MaxTriggersPerTest: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Five triggers needed, budget is four: impossible to trigger.
	r := d.Execute(Stimulus{
		Triggers: []string{"T1", "T2", "T3", "T4", "T5"},
		Monitors: []string{"E1"},
	})
	if len(r.Triggered) != 0 {
		t.Error("trigger budget not enforced")
	}
	// The second monitor must be ignored.
	bugs2 := []Bug{{ID: "C", Triggers: []string{"T1"}, Effects: []string{"E2"}}}
	d2, err := New(bugs2, Config{ObservationBudget: 1, MaxTriggersPerTest: 4})
	if err != nil {
		t.Fatal(err)
	}
	r = d2.Execute(Stimulus{Triggers: []string{"T1"}, Monitors: []string{"E1", "E2"}})
	if len(r.Detected) != 0 {
		t.Error("observation budget not enforced")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Bug{{ID: "A", Triggers: []string{"T"}, Effects: []string{"E"}}},
		Config{ObservationBudget: 0, MaxTriggersPerTest: 1}); err == nil {
		t.Error("accepted zero budget")
	}
	if _, err := New([]Bug{{Triggers: []string{"T"}, Effects: []string{"E"}}}, DefaultConfig()); err == nil {
		t.Error("accepted bug without ID")
	}
	if _, err := New([]Bug{{ID: "A", Effects: []string{"E"}}}, DefaultConfig()); err == nil {
		t.Error("accepted bug without triggers")
	}
	if _, err := New([]Bug{{ID: "A", Triggers: []string{"T"}}}, DefaultConfig()); err == nil {
		t.Error("accepted unobservable bug")
	}
	if _, err := New([]Bug{
		{ID: "A", Triggers: []string{"T"}, Effects: []string{"E"}},
		{ID: "A", Triggers: []string{"T"}, Effects: []string{"E"}},
	}, DefaultConfig()); err == nil {
		t.Error("accepted duplicate bug IDs")
	}
}

func TestBugsFromErrata(t *testing.T) {
	scheme := taxonomy.Base()
	errata := []*domain.Erratum{
		{
			DocKey: "intel-06", ID: "S1", Seq: 1,
			Ann: domain.Annotation{
				Triggers: []domain.Item{{Category: "Trg_POW_pwc"}},
				Effects:  []domain.Item{{Category: "Eff_HNG_hng"}},
				MSRs:     []string{"MCx_STATUS"},
			},
		},
		// No triggers: skipped.
		{DocKey: "intel-06", ID: "S2", Seq: 2,
			Ann: domain.Annotation{Effects: []domain.Item{{Category: "Eff_HNG_unp"}}}},
	}
	bugs := BugsFromErrata(errata, scheme, 0, 1, nil)
	if len(bugs) != 1 || bugs[0].ID != "intel-06/S1" {
		t.Fatalf("bugs = %+v", bugs)
	}
	if len(bugs[0].Triggers) != 1 || bugs[0].MSRs[0] != "MCx_STATUS" {
		t.Errorf("bug fields = %+v", bugs[0])
	}
	// Limit and shuffle determinism.
	many := make([]*domain.Erratum, 20)
	for i := range many {
		many[i] = &domain.Erratum{
			DocKey: "intel-06", ID: string(rune('A' + i)), Seq: i + 1,
			Ann: domain.Annotation{
				Triggers: []domain.Item{{Category: "Trg_CFG_wrg"}},
				Effects:  []domain.Item{{Category: "Eff_CRP_reg"}},
			},
		}
	}
	b1 := BugsFromErrata(many, scheme, 5, 1, rand.New(rand.NewSource(7)))
	b2 := BugsFromErrata(many, scheme, 5, 1, rand.New(rand.NewSource(7)))
	if len(b1) != 5 || len(b2) != 5 {
		t.Fatal("limit not applied")
	}
	for i := range b1 {
		if b1[i].ID != b2[i].ID {
			t.Error("shuffle not deterministic per seed")
		}
	}
}

func TestCampaignStrategies(t *testing.T) {
	scheme := taxonomy.Base()
	bugs := []Bug{
		{ID: "B1", Triggers: []string{"Trg_CFG_wrg", "Trg_POW_tht"},
			Effects: []string{"Eff_CRP_reg"}, MSRs: []string{"MCx_STATUS"}},
		{ID: "B2", Triggers: []string{"Trg_FEA_dbg", "Trg_PRV_vmt"},
			Contexts: []string{"Ctx_PRV_vmg"}, Effects: []string{"Eff_HNG_hng"}},
	}
	d, err := New(bugs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	directives := []DirectiveInput{
		{Triggers: []string{"Trg_CFG_wrg", "Trg_POW_tht"},
			Monitors: []string{"Eff_CRP_reg", "MCx_STATUS"}},
		{Triggers: []string{"Trg_FEA_dbg", "Trg_PRV_vmt"},
			Contexts: []string{"Ctx_PRV_vmg"},
			Monitors: []string{"Eff_HNG_hng"}},
	}
	directed := NewDirectedStrategy(directives, scheme, DefaultConfig(), 1)
	dres := RunCampaign(d, directed, 10, 5)
	if dres.Detected != 2 {
		t.Errorf("directed detected %d/2 in 10 tests", dres.Detected)
	}
	if dres.Strategy != "rememberr-directed" {
		t.Errorf("strategy name %q", dres.Strategy)
	}
	if len(dres.DetectionCurve) != 2 {
		t.Errorf("curve = %v", dres.DetectionCurve)
	}
	if dres.MedianTestsToDetect() < 0 {
		t.Error("median should exist")
	}

	random := NewRandomStrategy(scheme, []string{"MCx_STATUS"}, DefaultConfig(), 1)
	rres := RunCampaign(d, random, 10, 5)
	if rres.Detected > dres.Detected {
		t.Errorf("random (%d) beat directed (%d) on its own directives", rres.Detected, dres.Detected)
	}
	// Empty campaign edge cases.
	empty := RunCampaign(d, NewDirectedStrategy(nil, scheme, DefaultConfig(), 1), 3, 1)
	if empty.Detected != 0 || empty.MedianTestsToDetect() != -1 {
		t.Errorf("empty-strategy campaign = %+v", empty)
	}
}

// The headline claim of the directed-testing case study: with equal
// budgets, the RemembERR-directed strategy detects many more bugs than
// uniform CRV on a realistic bug population.
func TestDirectedBeatsRandom(t *testing.T) {
	scheme := taxonomy.Base()
	rng := rand.New(rand.NewSource(3))
	// A synthetic population of 30 bugs with 2-3 conjunctive triggers
	// drawn from a realistic skew.
	pool := []string{"Trg_CFG_wrg", "Trg_POW_tht", "Trg_POW_pwc", "Trg_FEA_dbg",
		"Trg_PRV_vmt", "Trg_EXT_pci", "Trg_EXT_ram", "Trg_CFG_vmc"}
	effects := []string{"Eff_CRP_reg", "Eff_HNG_hng", "Eff_HNG_unp", "Eff_FLT_mca"}
	var bugs []Bug
	var directives []DirectiveInput
	for i := 0; i < 30; i++ {
		n := 2 + rng.Intn(2)
		trgs := sampleDistinct(rng, pool, n)
		eff := effects[rng.Intn(len(effects))]
		bugs = append(bugs, Bug{
			ID: string(rune('a'+i%26)) + string(rune('0'+i/26)), Triggers: trgs, Effects: []string{eff},
		})
		if i%2 == 0 { // the campaign knows only half the interactions
			directives = append(directives, DirectiveInput{
				Triggers: trgs[:2],
				Monitors: []string{eff, "Eff_CRP_reg", "Eff_HNG_hng", "Eff_HNG_unp"},
			})
		}
	}
	d, err := New(bugs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const tests = 400
	dres := RunCampaign(d, NewDirectedStrategy(directives, scheme, DefaultConfig(), 1), tests, 100)
	rres := RunCampaign(d, NewRandomStrategy(scheme, nil, DefaultConfig(), 1), tests, 100)
	if dres.Detected <= rres.Detected {
		t.Errorf("directed %d vs random %d detected bugs in %d tests",
			dres.Detected, rres.Detected, tests)
	}
}
