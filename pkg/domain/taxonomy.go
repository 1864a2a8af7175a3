// Package domain is the stable public data model of RemembERR: the
// taxonomy contracts (kinds, classes, abstract categories and the
// Scheme view) and the erratum/document/database model that every
// layer — storage backends, classifier rule packs, corpus profiles,
// the serving tier — operates on.
//
// The package is the innermost hexagonal layer: it imports nothing
// from internal/ and nothing from the plugin trees, so third-party
// plugins and external consumers can depend on it without reaching
// into implementation packages. internal/taxonomy re-exports the
// taxonomy types under their historical names (type aliases), and
// every internal layer uses the data model directly from here.
//
// The taxonomy is hierarchical with three levels of abstraction:
//
//   - the concrete level: the exact action described in an erratum
//     ("the core resumes from the C6 power state"). Concrete items are
//     free-form strings attached to annotations and are the only
//     potentially ISA-specific level.
//   - the abstract level: a slightly higher abstraction ("a transition
//     between core power states"), identified by descriptors such as
//     Trg_POW_pwc. There are 60 abstract categories in the base scheme:
//     34 triggers, 10 contexts and 16 observable effects.
//   - the class level: the highest abstraction ("power management"),
//     identified by descriptors such as Trg_POW.
//
// Triggers are conjunctive: all triggers of an erratum must be applied
// to provoke the bug. Contexts and effects are disjunctive: being in
// any listed context suffices, and observing any listed effect
// suffices to detect the bug.
package domain

import (
	"fmt"
	"strings"
)

// Kind discriminates the three annotation dimensions of an erratum.
type Kind int

const (
	// Trigger marks conditions that are necessary to provoke a bug.
	Trigger Kind = iota
	// Context marks settings in which a bug can manifest.
	Context
	// Effect marks observable deviations once a bug has been triggered.
	Effect
)

// Kinds lists all kinds in canonical order.
var Kinds = []Kind{Trigger, Context, Effect}

// String returns the kind prefix used in descriptors (Trg, Ctx, Eff).
func (k Kind) String() string {
	switch k {
	case Trigger:
		return "Trg"
	case Context:
		return "Ctx"
	case Effect:
		return "Eff"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Name returns the human-readable name of the kind.
func (k Kind) Name() string {
	switch k {
	case Trigger:
		return "trigger"
	case Context:
		return "context"
	case Effect:
		return "effect"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind converts a descriptor prefix (Trg, Ctx or Eff,
// case-insensitive) into a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "trg", "trigger":
		return Trigger, nil
	case "ctx", "context":
		return Context, nil
	case "eff", "effect":
		return Effect, nil
	default:
		return 0, fmt.Errorf("taxonomy: unknown kind prefix %q", s)
	}
}

// Class is a class-level category, the highest abstraction level.
type Class struct {
	// ID is the full class descriptor, e.g. "Trg_EXT".
	ID string
	// Kind tells whether this is a trigger, context or effect class.
	Kind Kind
	// Suffix is the class part of the descriptor, e.g. "EXT".
	Suffix string
	// Description is the one-sentence description from the paper tables.
	Description string
}

// Category is an abstract-level category.
type Category struct {
	// ID is the full abstract descriptor, e.g. "Trg_EXT_rst".
	ID string
	// Kind tells whether this is a trigger, context or effect category.
	Kind Kind
	// Class is the class descriptor this category belongs to, e.g. "Trg_EXT".
	Class string
	// Suffix is the abstract part of the descriptor, e.g. "rst".
	Suffix string
	// Description is the one-sentence description from the paper tables.
	Description string
}

// Scheme is the read-only contract of a classification scheme: the set
// of classes and abstract categories with deterministic iteration
// order. internal/taxonomy's *Scheme (the paper's base scheme and any
// Registry-extended scheme) satisfies it; plugin taxonomies for new
// fault domains provide their own implementations.
type Scheme interface {
	// Classes returns all classes of kind k in definition order; a
	// negative kind selects every class.
	Classes(k Kind) []Class
	// AllClasses returns every class in definition order.
	AllClasses() []Class
	// Categories returns all abstract categories of kind k in
	// definition order; a negative kind selects every category.
	Categories(k Kind) []Category
	// AllCategories returns every abstract category in definition order.
	AllCategories() []Category
	// CategoriesOf returns the abstract category IDs belonging to the
	// given class descriptor, in definition order.
	CategoriesOf(classID string) []string
	// Class looks up a class by its descriptor.
	Class(id string) (Class, bool)
	// Category looks up an abstract category by its descriptor.
	Category(id string) (Category, bool)
	// ClassOf returns the class descriptor of the abstract category id,
	// or the empty string if id is unknown.
	ClassOf(id string) string
	// NumCategories returns the number of abstract categories of kind k
	// (negative for all kinds).
	NumCategories(k Kind) int
	// NumClasses returns the number of classes of kind k (negative for
	// all).
	NumClasses(k Kind) int
	// Validate checks that id denotes a class or abstract category of
	// the scheme and returns its canonical form.
	Validate(id string) (string, error)
	// CategoryIDs returns the descriptors of all abstract categories of
	// kind k (negative for all kinds), in definition order.
	CategoryIDs(k Kind) []string
	// ClassIDs returns the descriptors of all classes of kind k
	// (negative for all kinds), in definition order.
	ClassIDs(k Kind) []string
	// SortCategoryIDs sorts descriptors in the scheme's definition
	// order; unknown descriptors sort last, alphabetically. It sorts in
	// place and returns its argument for convenience.
	SortCategoryIDs(ids []string) []string
}
