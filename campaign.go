package rememberr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/pkg/domain"
)

// Directive is one ranked recommendation of a test-campaign plan: a set
// of triggers to exert together, the contexts to cover and the
// observation points to monitor. This operationalizes Section VI of the
// paper ("we need testing tools that exert power level transitions
// under MSR-determined configurations while operating custom features").
type Directive struct {
	// Rank orders directives by expected yield.
	Rank int
	// Triggers is the conjunctive trigger set to apply.
	Triggers []string
	// Contexts lists the contexts historically associated with bugs
	// matching the trigger set, most frequent first.
	Contexts []string
	// Observations lists the effect categories to monitor, most
	// frequent first.
	Observations []string
	// MSRs lists the registers to read as low-footprint observation
	// points.
	MSRs []string
	// Support is the number of unique historical errata matching the
	// trigger set.
	Support int
	// Rationale explains the directive.
	Rationale string
}

// CampaignOptions configures plan generation.
type CampaignOptions struct {
	// MaxDirectives caps the plan length (default 10).
	MaxDirectives int
	// MinSupport drops trigger sets backed by fewer unique errata
	// (default 3).
	MinSupport int
	// FocusVendor restricts the analysis to one vendor; nil means both.
	FocusVendor *Vendor
	// FocusClass restricts directives to trigger pairs involving the
	// given trigger class (e.g. "Trg_POW"); empty means all.
	FocusClass string
}

// DefaultCampaignOptions returns the standard plan configuration.
func DefaultCampaignOptions() CampaignOptions {
	return CampaignOptions{MaxDirectives: 10, MinSupport: 3}
}

// PlanCampaign derives a ranked test-campaign plan from the database:
// the strongest trigger interactions (Figure 12), each paired with the
// contexts in which matching bugs manifested and the effects and MSRs
// that witnessed them. Dynamic testing tools can use the directives as
// input-generation seeds and observation heuristics.
func (db *Database) PlanCampaign(opts CampaignOptions) []Directive {
	if opts.MaxDirectives == 0 {
		opts.MaxDirectives = 10
	}
	if opts.MinSupport == 0 {
		opts.MinSupport = 3
	}
	vendors := domain.Vendors
	if opts.FocusVendor != nil {
		vendors = []Vendor{*opts.FocusVendor}
	}

	// Collect unique errata in scope.
	var errata []*Erratum
	for _, v := range vendors {
		errata = append(errata, db.core.UniqueVendor(v)...)
	}

	// Rank trigger pairs by support.
	corr := analysis.TriggerCorrelation(db.core)
	pairs := corr.TopPairs(0)

	var out []Directive
	for _, p := range pairs {
		if p.Count < opts.MinSupport {
			break
		}
		if opts.FocusClass != "" {
			if db.Scheme().ClassOf(p.A) != opts.FocusClass && db.Scheme().ClassOf(p.B) != opts.FocusClass {
				continue
			}
		}
		d := db.directiveFor(errata, []string{p.A, p.B})
		if d == nil {
			continue
		}
		d.Rank = len(out) + 1
		out = append(out, *d)
		if len(out) >= opts.MaxDirectives {
			break
		}
	}
	return out
}

// directiveFor builds one directive for a conjunctive trigger set.
func (db *Database) directiveFor(errata []*Erratum, triggers []string) *Directive {
	ctxCount := map[string]int{}
	effCount := map[string]int{}
	msrCount := map[string]int{}
	support := 0
	for _, e := range errata {
		if !hasAllTriggers(e, triggers) {
			continue
		}
		support++
		for _, c := range e.Ann.Categories(Context, db.Scheme()) {
			ctxCount[c]++
		}
		for _, c := range e.Ann.Categories(Effect, db.Scheme()) {
			effCount[c]++
		}
		for _, m := range e.Ann.MSRs {
			msrCount[m]++
		}
	}
	if support == 0 {
		return nil
	}
	d := &Directive{
		Triggers:     append([]string(nil), triggers...),
		Contexts:     topKeys(ctxCount, 3),
		Observations: topKeys(effCount, 3),
		MSRs:         topKeys(msrCount, 3),
		Support:      support,
	}
	d.Rationale = fmt.Sprintf(
		"%d historical errata required %s together; observing %s covers them with minimal footprint.",
		support, strings.Join(triggers, " + "), strings.Join(d.Observations, ", "))
	return d
}

func hasAllTriggers(e *Erratum, triggers []string) bool {
	for _, t := range triggers {
		found := false
		for _, it := range e.Ann.Triggers {
			if it.Category == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func topKeys(m map[string]int, n int) []string {
	type kv struct {
		k string
		v int
	}
	var list []kv
	for k, v := range m {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].v != list[j].v {
			return list[i].v > list[j].v
		}
		return list[i].k < list[j].k
	})
	var out []string
	for i, e := range list {
		if i >= n {
			break
		}
		out = append(out, e.k)
	}
	return out
}

// RenderPlan renders a campaign plan as readable text.
func RenderPlan(plan []Directive) string {
	var b strings.Builder
	for _, d := range plan {
		fmt.Fprintf(&b, "%2d. apply %s", d.Rank, strings.Join(d.Triggers, " AND "))
		if len(d.Contexts) > 0 {
			fmt.Fprintf(&b, "\n    contexts: %s", strings.Join(d.Contexts, ", "))
		}
		fmt.Fprintf(&b, "\n    observe:  %s", strings.Join(d.Observations, ", "))
		if len(d.MSRs) > 0 {
			fmt.Fprintf(&b, "\n    MSRs:     %s", strings.Join(d.MSRs, ", "))
		}
		fmt.Fprintf(&b, "\n    support:  %d errata\n", d.Support)
	}
	return b.String()
}
