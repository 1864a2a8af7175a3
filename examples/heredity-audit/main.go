// Heredity audit: the security-team scenario of Section IV-B2.
//
// Long-lived bugs such as Meltdown showed that the same flaw can ship in
// many consecutive designs; an attacker who finds it early can exploit
// it for years. This example audits bug heredity: which bugs persist
// across generations, how long they stayed, whether they were known
// before the next design shipped, and where bugs were discovered first
// (forward- vs backward-latent).
package main

import (
	"fmt"
	"log"

	rememberr "repro"
	"repro/internal/heredity"
	"repro/internal/report"
)

func main() {
	db, _, err := rememberr.Build()
	if err != nil {
		log.Fatal(err)
	}
	c := db.Core()

	// 1. The heredity matrix (Figure 3): shared bugs between documents.
	m := heredity.SharedMatrix(c, rememberr.Intel)
	fmt.Println(report.Heatmap("shared unique errata between Intel documents", m.Labels, m.Counts))

	// 2. The longest-lived bugs (Observation O3).
	fmt.Println("longest-lived Intel bugs:")
	for _, lin := range heredity.LongestLineages(c, 8) {
		fmt.Printf("  %-8s spans %2d generations across %d documents\n",
			lin.Key, lin.GenSpan, len(lin.Docs))
	}

	// 3. Were the bugs shared by generations 6-10 known before each
	//    subsequent generation shipped? (Figure 4 / Observation O4.)
	docs := []string{"intel-06", "intel-07", "intel-08", "intel-10"}
	shared := heredity.SharedKeys(c, docs...)
	fmt.Printf("\nbugs shared by all Intel generations 6-10: %d\n", len(shared))
	for i := 0; i+1 < len(docs); i++ {
		known := heredity.KnownBeforeNextRelease(c, shared, docs[i], docs[i+1])
		later := db.Document(docs[i+1])
		fmt.Printf("  %3d/%d already disclosed in %s before %s shipped (%s)\n",
			known, len(shared), docs[i], docs[i+1], later.Released.Format("2006-01"))
	}

	// 4. Forward- vs backward-latent errata (Figure 5).
	res := heredity.ForwardBackwardLatent(c, rememberr.Intel)
	fmt.Printf("\nforward-latent errata:  %d (bug found in an old design, later confirmed in a newer one)\n",
		res.ForwardTotal)
	fmt.Printf("backward-latent errata: %d (bug found in a new design, later confirmed in an older one)\n",
		res.BackwardTotal)

	// 5. Security angle: long-lived bugs reachable from a VM guest are
	//    the highest-risk population.
	risky := 0
	sharedSet := map[string]bool{}
	for _, k := range shared {
		sharedSet[k] = true
	}
	for _, e := range db.Query().Vendor(rememberr.Intel).WithCategory("Ctx_PRV_vmg").Unique() {
		if sharedSet[e.Key] {
			risky++
		}
	}
	fmt.Printf("\n%d of the %d long-lived shared bugs are triggerable from a VM guest context\n",
		risky, len(shared))
}
