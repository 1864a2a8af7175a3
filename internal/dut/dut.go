// Package dut simulates a design under test for directed testing
// campaigns — the application Section VI of the paper argues for but
// does not implement.
//
// A DUT hides a set of bugs, each defined exactly as RemembERR models
// errata: a conjunctive set of required triggers, a disjunctive set of
// admissible contexts, and a disjunctive set of observable effects
// (including MSR witnesses). A test stimulus applies a set of trigger
// types in one context and monitors a bounded set of observation
// points; a bug is *triggered* when all of its triggers are applied in
// an admissible context, and *detected* only when at least one of its
// effects or witness registers is among the monitored points — the
// paper's input-space and observation-space challenges in miniature.
package dut

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// Bug is one hidden design flaw.
type Bug struct {
	// ID names the bug.
	ID string
	// Triggers is the conjunctive set of abstract trigger categories
	// that must all be applied in one stimulus.
	Triggers []string
	// Contexts is the disjunctive set of admissible contexts; empty
	// means the bug manifests in any context.
	Contexts []string
	// Effects is the disjunctive set of observable effect categories.
	Effects []string
	// MSRs lists registers witnessing the bug (observation points of
	// the cheap online kind).
	MSRs []string
}

// Stimulus is one test input.
type Stimulus struct {
	// Triggers is the set of abstract trigger categories exercised.
	Triggers []string
	// Context is the context the test runs in ("" = default/user mode).
	Context string
	// Monitors is the set of observation points read after the test:
	// effect categories and/or MSR names. Its size is limited by the
	// DUT's observation budget.
	Monitors []string
}

// Result reports one stimulus execution.
type Result struct {
	// Triggered lists bugs whose trigger/context condition was met.
	Triggered []string
	// Detected lists triggered bugs whose effect or MSR was monitored.
	Detected []string
}

// DUT is the simulated design.
type DUT struct {
	bugs []Bug
	// ObservationBudget caps len(Stimulus.Monitors); extra monitors are
	// ignored (excessive observation is not free, Section VI).
	ObservationBudget int
	// MaxTriggersPerTest caps the number of triggers a single stimulus
	// can apply (driving everything at once is not a realistic test).
	MaxTriggersPerTest int
}

// Config controls DUT construction.
type Config struct {
	ObservationBudget  int
	MaxTriggersPerTest int
}

// DefaultConfig mirrors a constrained post-silicon setup: four
// observation points and four simultaneously exercised trigger types.
func DefaultConfig() Config {
	return Config{ObservationBudget: 4, MaxTriggersPerTest: 4}
}

// New creates a DUT hiding the given bugs.
func New(bugs []Bug, cfg Config) (*DUT, error) {
	if cfg.ObservationBudget <= 0 || cfg.MaxTriggersPerTest <= 0 {
		return nil, fmt.Errorf("dut: budgets must be positive")
	}
	seen := map[string]bool{}
	for _, b := range bugs {
		if b.ID == "" {
			return nil, fmt.Errorf("dut: bug without ID")
		}
		if seen[b.ID] {
			return nil, fmt.Errorf("dut: duplicate bug ID %s", b.ID)
		}
		seen[b.ID] = true
		if len(b.Triggers) == 0 {
			return nil, fmt.Errorf("dut: bug %s without triggers", b.ID)
		}
		if len(b.Effects) == 0 && len(b.MSRs) == 0 {
			return nil, fmt.Errorf("dut: bug %s without observable effects", b.ID)
		}
	}
	return &DUT{
		bugs:               append([]Bug(nil), bugs...),
		ObservationBudget:  cfg.ObservationBudget,
		MaxTriggersPerTest: cfg.MaxTriggersPerTest,
	}, nil
}

// NumBugs returns the number of hidden bugs.
func (d *DUT) NumBugs() int { return len(d.bugs) }

// Execute runs one stimulus and reports triggered and detected bugs.
func (d *DUT) Execute(s Stimulus) Result {
	applied := map[string]bool{}
	for i, t := range s.Triggers {
		if i >= d.MaxTriggersPerTest {
			break
		}
		applied[t] = true
	}
	monitored := map[string]bool{}
	for i, m := range s.Monitors {
		if i >= d.ObservationBudget {
			break
		}
		monitored[m] = true
	}

	var res Result
	for _, b := range d.bugs {
		if !triggered(b, applied, s.Context) {
			continue
		}
		res.Triggered = append(res.Triggered, b.ID)
		if observed(b, monitored) {
			res.Detected = append(res.Detected, b.ID)
		}
	}
	return res
}

func triggered(b Bug, applied map[string]bool, ctx string) bool {
	for _, t := range b.Triggers {
		if !applied[t] {
			return false
		}
	}
	if len(b.Contexts) == 0 {
		return true
	}
	for _, c := range b.Contexts {
		if c == ctx {
			return true
		}
	}
	return false
}

func observed(b Bug, monitored map[string]bool) bool {
	for _, e := range b.Effects {
		if monitored[e] {
			return true
		}
	}
	for _, m := range b.MSRs {
		if monitored[m] {
			return true
		}
	}
	return false
}

// BugsFromErrata converts annotated errata into hidden DUT bugs: each
// erratum's conjunctive triggers, disjunctive contexts and effects
// become one bug. Errata with fewer than minTriggers triggers are
// skipped (minTriggers <= 1 keeps every triggered erratum) — campaigns
// about design-testing gaps care about the combined-trigger population
// the paper highlights (49% of errata need at least two triggers).
func BugsFromErrata(errata []*domain.Erratum, scheme domain.Scheme, limit, minTriggers int, rng *rand.Rand) []Bug {
	if minTriggers < 1 {
		minTriggers = 1
	}
	var candidates []*domain.Erratum
	for _, e := range errata {
		if len(e.Ann.Categories(taxonomy.Trigger, scheme)) >= minTriggers &&
			(len(e.Ann.Effects) > 0 || len(e.Ann.MSRs) > 0) {
			candidates = append(candidates, e)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].FullID() < candidates[j].FullID()
	})
	if rng != nil {
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
	}
	if limit > 0 && len(candidates) > limit {
		candidates = candidates[:limit]
	}
	var out []Bug
	for _, e := range candidates {
		b := Bug{
			ID:       e.FullID(),
			Triggers: e.Ann.Categories(taxonomy.Trigger, scheme),
			Contexts: e.Ann.Categories(taxonomy.Context, scheme),
			Effects:  e.Ann.Categories(taxonomy.Effect, scheme),
			MSRs:     append([]string(nil), e.Ann.MSRs...),
		}
		out = append(out, b)
	}
	return out
}
