package domain

import (
	"fmt"
	"strings"
)

// StructuredErratum is the machine-readable erratum format the paper
// proposes in Table VII as a replacement for the free-text
// title/description/implications layout. It removes the redundancy of
// the classic fields and makes triggers, contexts and effects explicit.
type StructuredErratum struct {
	// ID is the unique identifier shared with identical errata in other
	// designs (the RemembERR cluster key).
	ID string
	// Title is the erratum title.
	Title string
	// Triggers holds the conjunctive triggers on abstract and concrete
	// levels.
	Triggers []Item
	// Contexts holds the disjunctive contexts.
	Contexts []Item
	// Effects holds the disjunctive observable effects.
	Effects []Item
	// Comments carries restrictions or clarifications that do not fit
	// the three dimensions ("does not apply if ...").
	Comments string
	// RootCause is the root-cause explanation; almost always empty in
	// published errata (Section VII of the paper).
	RootCause string
	// Workaround is the workaround guidance.
	Workaround string
	// Status is the fix status.
	Status FixStatus
}

// Structure converts a classic erratum into the proposed format
// (Table I -> Table VII in the paper).
func Structure(e *Erratum) StructuredErratum {
	id := e.Key
	if id == "" {
		id = e.FullID()
	}
	return StructuredErratum{
		ID:         id,
		Title:      e.Title,
		Triggers:   append([]Item(nil), e.Ann.Triggers...),
		Contexts:   append([]Item(nil), e.Ann.Contexts...),
		Effects:    append([]Item(nil), e.Ann.Effects...),
		Comments:   e.Implication,
		Workaround: e.Workaround,
		Status:     e.Fix,
	}
}

// Render produces the human-readable form of the structured format, in
// the layout of Table VII.
func (s StructuredErratum) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ID: %s\n", s.ID)
	fmt.Fprintf(&b, "Title: %s\n", s.Title)
	renderDim := func(name string, items []Item) {
		fmt.Fprintf(&b, "%s:\n", name)
		if len(items) == 0 {
			fmt.Fprintf(&b, "  (none)\n")
			return
		}
		for _, it := range items {
			fmt.Fprintf(&b, "  Abstract: %s\n", it.Category)
			fmt.Fprintf(&b, "  Concrete: %s\n", it.Concrete)
		}
	}
	renderDim("Triggers", s.Triggers)
	renderDim("Contexts", s.Contexts)
	renderDim("Effects", s.Effects)
	if s.Comments != "" {
		fmt.Fprintf(&b, "Comments: %s\n", s.Comments)
	}
	if s.RootCause != "" {
		fmt.Fprintf(&b, "Root cause: %s\n", s.RootCause)
	}
	fmt.Fprintf(&b, "Workaround: %s\n", orNone(s.Workaround))
	fmt.Fprintf(&b, "Status: %s\n", s.Status)
	return b.String()
}

func orNone(s string) string {
	if strings.TrimSpace(s) == "" {
		return "None identified."
	}
	return s
}

// Validate checks the structured erratum against a taxonomy scheme.
func (s StructuredErratum) Validate(scheme *Scheme) error {
	if s.ID == "" {
		return fmt.Errorf("core: structured erratum without ID")
	}
	if s.Title == "" {
		return fmt.Errorf("core: structured erratum %s without title", s.ID)
	}
	ann := Annotation{Triggers: s.Triggers, Contexts: s.Contexts, Effects: s.Effects}
	return ann.Validate(scheme)
}
