package analysis

import (
	"testing"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

func TestGrade(t *testing.T) {
	scheme := taxonomy.Base()
	mk := func(effects ...string) *domain.Erratum {
		e := &domain.Erratum{}
		for _, c := range effects {
			e.Ann.Effects = append(e.Ann.Effects, domain.Item{Category: c})
		}
		return e
	}
	cases := []struct {
		effects []string
		want    Severity
	}{
		{[]string{"Eff_HNG_hng"}, SeverityFatal},
		{[]string{"Eff_CRP_prf"}, SeverityCorrupting},
		{[]string{"Eff_FLT_fsp"}, SeverityCorrupting},
		{[]string{"Eff_EXT_usb"}, SeverityDegrading},
		{[]string{"Eff_EXT_usb", "Eff_HNG_crh"}, SeverityFatal}, // conservative max
		{nil, SeverityUnknown},
	}
	for _, c := range cases {
		if got := Grade(mk(c.effects...), scheme); got != c.want {
			t.Errorf("Grade(%v) = %v, want %v", c.effects, got, c.want)
		}
	}
}

func TestSeverityStrings(t *testing.T) {
	for s, want := range map[Severity]string{
		SeverityUnknown: "Unknown", SeverityDegrading: "Degrading",
		SeverityCorrupting: "Corrupting", SeverityFatal: "Fatal",
	} {
		if s.String() != want {
			t.Errorf("severity %d = %q", s, s.String())
		}
	}
}

func TestSeveritiesAndMostCritical(t *testing.T) {
	db := buildDB(t)
	breakdowns := Severities(db)
	if len(breakdowns) != 2 {
		t.Fatalf("breakdowns = %d", len(breakdowns))
	}
	intel := breakdowns[0]
	if intel.Vendor != domain.Intel {
		t.Fatalf("order wrong: %v", intel.Vendor)
	}
	// buildDB: K1 has Eff_CRP_reg (corrupting), K2 Eff_HNG_hng (fatal),
	// K3 Eff_HNG_unp (fatal).
	if intel.Counts[SeverityFatal] != 2 || intel.Counts[SeverityCorrupting] != 1 {
		t.Errorf("intel counts = %v", intel.Counts)
	}
	if intel.Total != 3 {
		t.Errorf("intel total = %d", intel.Total)
	}
	// AMD: one fatal, guest-reachable.
	amd := breakdowns[1]
	if amd.Counts[SeverityFatal] != 1 || amd.GuestReachableFatal != 1 {
		t.Errorf("amd breakdown = %+v", amd)
	}

	top := MostCritical(db, domain.Intel, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if Grade(top[0], db.Scheme) != SeverityFatal {
		t.Errorf("top severity = %v", Grade(top[0], db.Scheme))
	}
	all := MostCritical(db, domain.Intel, 0)
	if len(all) != 3 {
		t.Errorf("unlimited top = %d", len(all))
	}
}
