// Classify a new erratum: the cross-ISA extension use case.
//
// RemembERR's scheme is ISA-agnostic above the concrete level, so a
// team maintaining a RISC-V or ARM design can classify their own errata
// against the same categories. This example feeds a fresh erratum text
// through the regex-assisted classifier, shows the syntax-highlighted
// relevant regions, lists the decisions a human still has to take, and
// extends the taxonomy with a new ISA-specific category.
package main

import (
	"fmt"
	"log"

	"repro/internal/classify"
	"repro/internal/taxonomy"
	"repro/pkg/domain"

	// Wire the built-in rule pack and corpus profile as the defaults.
	_ "repro/plugins/defaults"
)

func main() {
	engine := classify.NewEngine()

	// A new erratum, as a test engineer would write it.
	erratum := &domain.Erratum{
		DocKey: "riscv-xy", ID: "XY042", Seq: 1,
		Title: "Hart May Hang When Resuming From Deep Sleep During PCIe Traffic",
		Description: "When the core resumes from the C6 power state and ongoing PCIe traffic " +
			"is present on the link, the processor may hang. " +
			"This erratum applies while running as a virtual machine guest. " +
			"The affected state may be observed in the MCx_STATUS register.",
		Implication: "The system may be affected as described. The processor may hang.",
		Workaround:  "It is possible for the BIOS to contain a workaround for this erratum.",
		Status:      "No fix planned.",
	}

	rep := engine.Classify(erratum)

	// The syntax-highlighting tool the paper built for its annotators:
	// '!' marks auto-included regions, '?' marks regions needing review.
	fmt.Println("=== highlighted relevant regions ===")
	fmt.Println(classify.Highlight(erratum, rep))

	scheme := engine.Scheme()
	fmt.Println("auto-included categories:")
	for _, cat := range rep.IncludedCategories(scheme) {
		fmt.Printf("  %-14s  %q\n", cat, rep.Concrete[cat])
	}
	fmt.Println("undecided (needs a human):")
	for _, cat := range rep.UndecidedPairs(scheme) {
		fmt.Printf("  %-14s  %q\n", cat, rep.Concrete[cat])
	}
	fmt.Printf("observable MSRs: %v\n", rep.MSRs)
	fmt.Printf("workaround category: %s; fix status: %s\n\n", rep.WorkaroundCat, rep.Fix)

	// Cross-ISA extension: register a RISC-V-specific trigger category.
	reg := taxonomy.NewRegistry()
	if err := reg.AddCategory("Trg_FEA", "vec", "a RISC-V vector (RVV) instruction interaction"); err != nil {
		log.Fatal(err)
	}
	if err := reg.AddClass(taxonomy.Trigger, "CLIC", "related to the core-local interrupt controller"); err != nil {
		log.Fatal(err)
	}
	if err := reg.AddCategory("Trg_CLIC", "nst", "nested CLIC interrupt preemption"); err != nil {
		log.Fatal(err)
	}
	extended := reg.Scheme()
	fmt.Printf("extended scheme: %d abstract categories (%d triggers)\n",
		extended.NumCategories(-1), extended.NumCategories(taxonomy.Trigger))

	// Annotate the erratum against the extended scheme.
	ann := domain.Annotation{
		Triggers: []domain.Item{
			{Category: "Trg_POW_pwc", Concrete: "the core resumes from the C6 power state"},
			{Category: "Trg_EXT_pci", Concrete: "ongoing PCIe traffic is present on the link"},
			{Category: "Trg_CLIC_nst", Concrete: "a CLIC interrupt preempts the resume sequence"},
		},
		Effects: []domain.Item{{Category: "Eff_HNG_hng", Concrete: "the hart hangs"}},
	}
	if err := ann.Validate(extended); err != nil {
		log.Fatal(err)
	}
	fmt.Println("annotation with the ISA-specific category validates against the extended scheme")
}
