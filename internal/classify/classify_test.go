package classify

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/pkg/domain"
)

var engine = NewEngine()

// synthetic builds an erratum embedding one phrase in the proper section
// for its kind.
func synthetic(kind domain.Kind, phrase string) *domain.Erratum {
	e := &domain.Erratum{DocKey: "intel-06", ID: "TST001", Seq: 1, Title: "Test"}
	switch kind {
	case domain.Trigger:
		e.Description = "When " + phrase + ", the described behavior may occur."
	case domain.Context:
		e.Description = "When a warm reset is applied to the processor, the described behavior may occur. " +
			"This erratum applies while " + phrase + "."
	case domain.Effect:
		e.Description = "When a warm reset is applied to the processor, " + phrase + "."
	}
	return e
}

// TestRuleCoverageAndExclusivity is the central invariant of the
// software-assisted classification: for every phrase of every category,
// the filter must either auto-include the right category or leave it
// undecided (never auto-exclude it), and it must never auto-include a
// wrong category of the same kind.
func TestRuleCoverageAndExclusivity(t *testing.T) {
	banks := corpus.PhraseBanks()
	for kind, bank := range banks {
		for cat, phrases := range bank {
			for _, phrase := range phrases {
				rep := engine.Classify(synthetic(kind, phrase))
				got := rep.Decision(cat)
				if got == Exclude {
					t.Errorf("%s: phrase %q auto-excluded its own category", cat, phrase)
				}
				for _, other := range engine.Scheme().Categories(kind) {
					if other.ID == cat {
						continue
					}
					if rep.Decision(other.ID) == Include {
						t.Errorf("phrase %q of %s falsely auto-includes %s", phrase, cat, other.ID)
					}
				}
			}
		}
	}
}

// Distinctive phrasings (all but the last of each bank) should mostly be
// auto-included: this is what achieves the paper's 30x decision
// reduction.
func TestDistinctivePhrasesMostlyAutoInclude(t *testing.T) {
	banks := corpus.PhraseBanks()
	total, included := 0, 0
	for kind, bank := range banks {
		for cat, phrases := range bank {
			for _, phrase := range phrases[:len(phrases)-1] {
				total++
				rep := engine.Classify(synthetic(kind, phrase))
				if rep.Decision(cat) == Include {
					included++
				}
			}
		}
	}
	frac := float64(included) / float64(total)
	if frac < 0.80 {
		t.Errorf("only %.0f%% of distinctive phrases auto-include (want >= 80%%)", 100*frac)
	}
}

func TestMultiTriggerSegmentation(t *testing.T) {
	e := &domain.Erratum{
		DocKey: "intel-06", ID: "TST002", Seq: 1,
		Description: "When software writes a model specific register with a reserved encoding " +
			"and thermal throttling engages under load, the processor may hang. " +
			"This erratum applies while running as a virtual machine guest.",
		Implication: "The system may be affected as described. The processor may hang.",
	}
	rep := engine.Classify(e)
	for _, want := range []string{"Trg_CFG_wrg", "Trg_POW_tht", "Eff_HNG_hng", "Ctx_PRV_vmg"} {
		if rep.Decision(want) != Include {
			t.Errorf("%s = %v, want include", want, rep.Decision(want))
		}
	}
	if got := rep.Concrete["Trg_POW_tht"]; got != "thermal throttling engages under load" {
		t.Errorf("concrete for tht = %q", got)
	}
	if rep.Decision("Trg_EXT_rst") == Include {
		t.Error("reset falsely included")
	}
}

func TestComplexAndTrivialFlags(t *testing.T) {
	for _, s := range corpus.ComplexConditionSentences() {
		e := &domain.Erratum{Description: s + " When a warm reset is applied to the processor, the processor may hang."}
		if rep := engine.Classify(e); !rep.Complex {
			t.Errorf("complex sentence not flagged: %q", s)
		}
	}
	for _, s := range corpus.TrivialTriggerSentences() {
		e := &domain.Erratum{Description: s + " The processor may hang."}
		rep := engine.Classify(e)
		if !rep.Trivial {
			t.Errorf("trivial sentence not flagged: %q", s)
		}
	}
	plain := &domain.Erratum{Description: "When a warm reset is applied to the processor, the processor may hang."}
	if rep := engine.Classify(plain); rep.Complex || rep.Trivial {
		t.Error("flags set on plain erratum")
	}
}

func TestMSRExtraction(t *testing.T) {
	e := &domain.Erratum{
		Description: "When a counter overflow occurs, the MSR may contain a wrong value. " +
			"The affected state may be observed in the MCx_STATUS register. " +
			"The affected state may be observed in the MCx_ADDR register.",
	}
	rep := engine.Classify(e)
	if len(rep.MSRs) != 2 || rep.MSRs[0] != "MCx_STATUS" || rep.MSRs[1] != "MCx_ADDR" {
		t.Errorf("MSRs = %v", rep.MSRs)
	}
	if len(rep.SuspiciousMSRs) != 0 {
		t.Errorf("suspicious = %v", rep.SuspiciousMSRs)
	}
	bad := &domain.Erratum{
		Description: "When a counter overflow occurs, the processor may hang. " +
			"The erroneous value is latched in MSR 0xFFFF_FFFF.",
	}
	rep = engine.Classify(bad)
	if len(rep.SuspiciousMSRs) != 1 {
		t.Errorf("suspicious = %v, want 1 entry", rep.SuspiciousMSRs)
	}
	if len(rep.MSRs) != 0 {
		t.Errorf("MSRs = %v, want none", rep.MSRs)
	}
}

func TestWorkaroundClassification(t *testing.T) {
	for cat, bank := range corpus.WorkaroundTextBank() {
		want, err := domain.ParseWorkaroundCategory(cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range bank {
			if got := ClassifyWorkaround(text); got != want {
				t.Errorf("ClassifyWorkaround(%q) = %v, want %v", text, got, want)
			}
		}
	}
	if ClassifyWorkaround("") != domain.WorkaroundNone {
		t.Error("empty workaround should classify as None")
	}
	if ClassifyWorkaround("Mysterious measures may exist.") != domain.WorkaroundAbsent {
		t.Error("unrecognized workaround should classify as Absent")
	}
}

func TestStatusClassification(t *testing.T) {
	for st, bank := range corpus.StatusTextBank() {
		want, err := domain.ParseFixStatus(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range bank {
			if got := ClassifyStatus(text); got != want {
				t.Errorf("ClassifyStatus(%q) = %v, want %v", text, got, want)
			}
		}
	}
	if ClassifyStatus("") != domain.FixNone {
		t.Error("empty status should classify as NoFixPlanned")
	}
}

func TestStatsAccounting(t *testing.T) {
	var s Stats
	e := synthetic(domain.Trigger, "a warm reset is applied to the processor")
	s.Accumulate(engine.Classify(e))
	if s.Errata != 1 {
		t.Errorf("errata = %d", s.Errata)
	}
	if s.RawDecisions != engine.Scheme().NumCategories(-1) {
		t.Errorf("raw decisions = %d, want %d", s.RawDecisions, engine.Scheme().NumCategories(-1))
	}
	if s.AutoIncluded+s.AutoExcluded+s.Undecided != s.RawDecisions {
		t.Error("decision partition does not sum")
	}
	if s.AutoIncluded == 0 {
		t.Error("reset phrase should auto-include")
	}
	if s.ReductionFactor() <= 1 && s.Undecided > 0 {
		t.Error("reduction factor should exceed 1")
	}
}

func TestHighlight(t *testing.T) {
	e := &domain.Erratum{
		Title: "Processor May Hang",
		Description: "When thermal throttling engages under load, the processor may hang. " +
			"This erratum applies while running as a virtual machine guest.",
	}
	rep := engine.Classify(e)
	out := Highlight(e, rep)
	for _, want := range []string{"Trg_POW_tht", "Eff_HNG_hng", "Ctx_PRV_vmg", "thermal throttling"} {
		if !strings.Contains(out, want) {
			t.Errorf("highlight missing %q:\n%s", want, out)
		}
	}
}

func TestUndecidedSurfacedForVaguePhrase(t *testing.T) {
	// The vague phrasings must surface as undecided, not vanish.
	e := synthetic(domain.Trigger, "a power state change is requested")
	rep := engine.Classify(e)
	if rep.Decision("Trg_POW_pwc") != Undecided {
		t.Errorf("vague power phrase decision = %v, want undecided", rep.Decision("Trg_POW_pwc"))
	}
	pairs := rep.UndecidedPairs(engine.Scheme())
	found := false
	for _, p := range pairs {
		if p == "Trg_POW_pwc" {
			found = true
		}
	}
	if !found {
		t.Errorf("UndecidedPairs missing Trg_POW_pwc: %v", pairs)
	}
}

func TestDecisionString(t *testing.T) {
	if Exclude.String() != "exclude" || Undecided.String() != "undecided" || Include.String() != "include" {
		t.Error("decision labels wrong")
	}
}

func TestClassifyEmptyAndOddInputs(t *testing.T) {
	// Empty erratum: everything excluded, no flags, no panic.
	rep := engine.Classify(&domain.Erratum{})
	if len(rep.Decisions) != engine.Scheme().NumCategories(-1) {
		t.Errorf("empty erratum: %d decisions", len(rep.Decisions))
	}
	for _, cat := range engine.Scheme().CategoryIDs(-1) {
		if d := rep.Decision(cat); d != Exclude {
			t.Errorf("empty erratum: %s = %v", cat, d)
		}
	}
	if rep.Complex || rep.Trivial || rep.SimulationOnly || len(rep.MSRs) != 0 {
		t.Error("empty erratum: flags set")
	}

	// Unknown sentence shapes are scanned as advisory effect evidence:
	// they may surface undecided pairs but never auto-include.
	odd := &domain.Erratum{Description: "The processor may hang. Completely free-form sentence here."}
	rep = engine.Classify(odd)
	if rep.Decision("Eff_HNG_hng") == Exclude {
		t.Error("advisory hang evidence vanished")
	}
	if rep.Decision("Eff_HNG_hng") == Include {
		t.Error("advisory evidence auto-included")
	}

	// A "When" sentence without a comma is a pure trigger clause.
	noComma := &domain.Erratum{Description: "When a warm reset is applied to the processor."}
	rep = engine.Classify(noComma)
	if rep.Decision("Trg_EXT_rst") != Include {
		t.Errorf("comma-free trigger clause = %v", rep.Decision("Trg_EXT_rst"))
	}
}

func TestSimulationOnlyFlag(t *testing.T) {
	e := &domain.Erratum{
		Description: "When a warm reset is applied to the processor, the processor may hang. " +
			"This erratum has only been observed in simulation.",
	}
	rep := engine.Classify(e)
	if !rep.SimulationOnly {
		t.Error("simulation-only sentence not flagged")
	}
	// The flag sentence must not leak into effect classification.
	if rep.Decision("Eff_HNG_unp") == Include {
		t.Error("flag sentence auto-included an effect")
	}
}

func TestSegmentFields(t *testing.T) {
	e := &domain.Erratum{
		Description: "When a warm reset is applied to the processor, the processor may hang.",
		Implication: "The processor may hang.",
	}
	rep := engine.Classify(e)
	fields := map[string]bool{}
	advisoryCount := 0
	for _, seg := range rep.Segments {
		fields[seg.Field] = true
		if seg.Advisory {
			advisoryCount++
		}
	}
	if !fields["Description"] || !fields["Implication"] {
		t.Errorf("segment fields = %v", fields)
	}
	if advisoryCount == 0 {
		t.Error("implication segments should be advisory")
	}
}
