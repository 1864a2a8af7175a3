// Testing-campaign planner: the Section VI application of the paper.
//
// A design-test team wants to direct a dynamic testing campaign
// (simulation, emulation or silicon testing). RemembERR tells them which
// input types empirically interact to surface bugs, in which contexts to
// run, and where to look — so the campaign applies conjunctive trigger
// sets and monitors only a minimal set of observation points.
package main

import (
	"fmt"
	"log"

	rememberr "repro"
)

func main() {
	db, _, err := rememberr.Build()
	if err != nil {
		log.Fatal(err)
	}

	// General plan: the ten strongest trigger interactions in the
	// corpus, each with contexts and observation points.
	fmt.Println("=== general campaign plan (top trigger interactions) ===")
	plan := db.PlanCampaign(rememberr.DefaultCampaignOptions())
	fmt.Print(rememberr.RenderPlan(plan))

	// The paper's concrete example: power-management testing. Errata
	// show that DRAM- and PCIe-related bugs "will never be triggered
	// until power levels change", so a power-focused campaign must pair
	// power transitions with peripheral activity.
	fmt.Println("\n=== power-management focus (Trg_POW) ===")
	powPlan := db.PlanCampaign(rememberr.CampaignOptions{
		MaxDirectives: 6,
		MinSupport:    2,
		FocusClass:    "Trg_POW",
	})
	fmt.Print(rememberr.RenderPlan(powPlan))

	// Virtualization focus: O11 says VM guests are the most bug-prone
	// context; plan directives around VM transitions.
	fmt.Println("\n=== virtualization focus (Trg_PRV) ===")
	vmPlan := db.PlanCampaign(rememberr.CampaignOptions{
		MaxDirectives: 6,
		MinSupport:    2,
		FocusClass:    "Trg_PRV",
	})
	fmt.Print(rememberr.RenderPlan(vmPlan))

	// Observation strategy: which registers give the cheapest online
	// bug witness? (Figure 19 / O13.)
	fmt.Println("\n=== low-footprint observation points ===")
	for _, msr := range []string{"MCx_STATUS", "MCx_ADDR", "IA32_PMCx", "IBS_OP_DATA"} {
		n := db.Query().ObservableIn(msr).Count()
		fmt.Printf("  %-16s witnesses %3d unique errata\n", msr, n)
	}

	// Feed a fuzzer: emit the directives as seed descriptors.
	fmt.Println("\n=== fuzzer seed descriptors ===")
	for _, d := range plan[:3] {
		fmt.Printf("seed{triggers: %v, contexts: %v, monitors: %v}\n",
			d.Triggers, d.Contexts, d.MSRs)
	}
}
