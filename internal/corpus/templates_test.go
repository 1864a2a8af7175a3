package corpus

import (
	"strings"
	"testing"

	"repro/pkg/domain"
)

// The description format joins trigger clauses with " and " and splits
// the trigger part from the effect part at the first ", ". Template
// phrases must therefore be free of those separators, or the classifier
// could not segment descriptions.
func TestTriggerPhrasesAreSeparatorFree(t *testing.T) {
	for cat, bank := range triggerPhrases {
		for _, p := range bank {
			if strings.Contains(p, ", ") {
				t.Errorf("%s phrase contains a comma separator: %q", cat, p)
			}
			if strings.Contains(p, " and ") {
				t.Errorf("%s phrase contains an 'and' separator: %q", cat, p)
			}
		}
	}
}

func TestContextPhrasesAreSeparatorFree(t *testing.T) {
	for cat, bank := range contextPhrases {
		for _, p := range bank {
			if strings.Contains(p, " or while ") {
				t.Errorf("%s phrase contains an 'or while' separator: %q", cat, p)
			}
			if strings.Contains(p, ", ") {
				t.Errorf("%s phrase contains a comma: %q", cat, p)
			}
		}
	}
}

func TestEffectPhrasesAreSeparatorFree(t *testing.T) {
	for cat, bank := range effectPhrases {
		for _, p := range bank {
			if strings.Contains(p, ", ") || strings.Contains(p, "; ") {
				t.Errorf("%s phrase contains a separator: %q", cat, p)
			}
		}
	}
}

// Every abstract category of the base scheme must have a phrase bank and
// a non-trivial number of phrasings, and vice versa.
func TestBanksCoverScheme(t *testing.T) {
	scheme := domain.BaseScheme()
	banks := PhraseBanks()
	for _, kind := range domain.Kinds {
		bank := banks[kind]
		for _, cat := range scheme.Categories(kind) {
			phrases, ok := bank[cat.ID]
			if !ok {
				t.Errorf("no phrase bank for %s", cat.ID)
				continue
			}
			if len(phrases) < 2 {
				t.Errorf("%s has only %d phrasings", cat.ID, len(phrases))
			}
			for _, p := range phrases {
				if strings.TrimSpace(p) == "" {
					t.Errorf("%s has an empty phrasing", cat.ID)
				}
			}
		}
		for id := range bank {
			if _, ok := scheme.Category(id); !ok {
				t.Errorf("phrase bank for unknown category %s", id)
			}
		}
	}
}

// Phrases must be unique across categories within a kind; otherwise the
// ground truth would be ambiguous even for a perfect classifier.
func TestPhrasesUniqueWithinKind(t *testing.T) {
	for kind, bank := range PhraseBanks() {
		seen := map[string]string{}
		for cat, phrases := range bank {
			for _, p := range phrases {
				if prev, ok := seen[p]; ok {
					t.Errorf("%v phrase %q shared by %s and %s", kind, p, prev, cat)
				}
				seen[p] = cat
			}
		}
	}
}

func TestTitleFragmentsCoverEffects(t *testing.T) {
	scheme := domain.BaseScheme()
	for _, cat := range scheme.Categories(domain.Effect) {
		if len(titleFragments[cat.ID]) == 0 {
			t.Errorf("no title fragment for effect %s", cat.ID)
		}
	}
	for _, cl := range scheme.Classes(domain.Trigger) {
		if len(titleSubjects[cl.ID]) == 0 {
			t.Errorf("no title subject for trigger class %s", cl.ID)
		}
	}
}

func TestWorkaroundAndStatusBanksComplete(t *testing.T) {
	for _, cat := range []string{"None", "BIOS", "Software", "Peripherals", "Absent", "DocumentationFix"} {
		if len(workaroundTexts[cat]) == 0 {
			t.Errorf("no workaround text for %s", cat)
		}
	}
	for _, st := range []string{"NoFixPlanned", "FixPlanned", "Fixed"} {
		if len(statusTexts[st]) == 0 {
			t.Errorf("no status text for %s", st)
		}
	}
}
