package corpus

import (
	"testing"

	"repro/pkg/domain"
)

// TestMultiSeedInvariants generates the corpus under several seeds and
// checks the invariants every downstream stage relies on: exact totals,
// heredity constraints, per-lineage ID sharing, and well-formed
// annotations. The default seed is covered extensively elsewhere; this
// test guards against seed-dependent generator bugs.
func TestMultiSeedInvariants(t *testing.T) {
	for _, seed := range []int64{2, 5, 123, 9999} {
		gt, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := gt.DB.ComputeStats()
		if st.Total != TargetTotal || st.Unique != TargetUnique {
			t.Errorf("seed %d: totals %d/%d", seed, st.Total, st.Unique)
		}
		if st.IntelUnique != TargetIntelUnique || st.AMDUnique != TargetAMDUnique {
			t.Errorf("seed %d: uniques %d/%d", seed, st.IntelUnique, st.AMDUnique)
		}
		if got := len(gt.ConfirmedPairs); got != 29 {
			t.Errorf("seed %d: variant pairs = %d", seed, got)
		}
		if got := len(gt.Inventory.IntraDocDuplicates); got != 11 {
			t.Errorf("seed %d: intra-doc duplicates = %d", seed, got)
		}

		// Titles never collide across lineages.
		seen := map[string]string{}
		for _, e := range gt.DB.Errata() {
			n := normTitle(e.Title)
			if prev, ok := seen[n]; ok && prev != e.Key {
				t.Fatalf("seed %d: lineages %s/%s share title %q", seed, prev, e.Key, e.Title)
			}
			seen[n] = e.Key
		}

		// AMD IDs are shared per lineage and unique across lineages.
		idByKey := map[string]string{}
		for _, d := range gt.DB.VendorDocuments(domain.AMD) {
			for _, e := range d.Errata {
				if prev, ok := idByKey[e.Key]; ok && prev != e.ID {
					t.Fatalf("seed %d: AMD lineage %s has two IDs", seed, e.Key)
				}
				idByKey[e.Key] = e.ID
			}
		}

		// The heredity pins hold under every seed.
		shared := sharedBy(gt, "intel-06", "intel-07", "intel-08", "intel-10")
		if shared != SharedGens6To10 {
			t.Errorf("seed %d: gens 6-10 shared = %d", seed, shared)
		}

		if err := gt.DB.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func sharedBy(gt *GroundTruth, docs ...string) int {
	count := map[string]int{}
	for _, dk := range docs {
		seen := map[string]bool{}
		for _, e := range gt.DB.Docs[dk].Errata {
			if !seen[e.Key] {
				seen[e.Key] = true
				count[e.Key]++
			}
		}
	}
	n := 0
	for _, c := range count {
		if c == len(docs) {
			n++
		}
	}
	return n
}
