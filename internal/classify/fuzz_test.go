package classify

import (
	"testing"

	"repro/pkg/domain"
)

// Shared engines: fuzzing runs workers in parallel, and sharing also
// stresses the memo cache with adversarial clause streams.
var (
	fuzzNaive  = NewEngineConfig(Config{})
	fuzzKernel = NewEngine()
)

// FuzzClassifyEquivalence differentially fuzzes the matching kernel:
// for arbitrary erratum text the kernel-backed engine must produce a
// Report identical to the naive reference path, including the
// workaround and status classifications the kernel engine memoizes per
// text. The corpus seeds cover the segmenter's sentence shapes plus
// case-folding traps (Kelvin sign, long s) where naive byte-wise
// lowering would diverge from Go's (?i) fold orbits.
func FuzzClassifyEquivalence(f *testing.F) {
	f.Add("When software writes a model specific register with a reserved encoding, the processor may hang. "+
		"This erratum applies while running as a virtual machine guest.",
		"The system may be affected as described.",
		"It is possible for the BIOS to contain a workaround for this erratum.", "No fix planned.")
	f.Add("When an access straddles a cache line boundary, an MCA error may be reported. "+
		"The affected state may be observed in the MCx_STATUS register.", "",
		"Contact your AMD representative for information on a BIOS update.", "Fixed in B1 stepping.")
	f.Add("When a ſpeculative acceſs ſtraddles a page boundary, the reſult is unpredictable.", "", "  none IDENTIFIED", "PLANNED")
	f.Add("When the KELVIN unit overheats, a thermal event occurs. In addition, power consumption may increase.",
		"The proceſſor may hang; the system may crash.",
		"System software should avoid the sequence.", "No fix planned; see the documentation.")
	f.Add("This erratum has only been observed in simulation. The erroneous value is latched in MSR 0xFFFF_FFFF.", "", "A documentation change is planned.", "bios fixed")
	f.Add("", "", "", "")
	f.Fuzz(func(t *testing.T, desc, impl, workaround, status string) {
		e := &domain.Erratum{Description: desc, Implication: impl, Workaround: workaround, Status: status}
		want := fuzzNaive.Classify(e)
		got := fuzzKernel.Classify(e)
		if d := diffReports(want, got); d != "" {
			t.Fatalf("kernel diverges from naive on %q / %q: %s", desc, impl, d)
		}
		if h, hn := Highlight(e, got), Highlight(e, want); h != hn {
			t.Fatalf("highlight diverges on %q / %q", desc, impl)
		}
	})
}
