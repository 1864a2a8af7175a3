package classify

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/pkg/domain"
)

// kernelConfigs enumerates every matching strategy; the zero config is
// the naive reference.
var kernelConfigs = []struct {
	name string
	cfg  Config
}{
	{"naive", Config{}},
	{"prefilter", Config{Prefilter: true}},
	{"memo", Config{Memo: true}},
	{"prefilter-memo", Config{Prefilter: true, Memo: true}},
}

// diffReports explains the first difference between two reports, or
// returns "" when they are identical. Shared by the contract test and
// the differential fuzz target.
func diffReports(a, b *Report) string {
	switch {
	case !reflect.DeepEqual(a.Decisions, b.Decisions):
		return fmt.Sprintf("Decisions: %v vs %v", a.Decisions, b.Decisions)
	case !reflect.DeepEqual(a.Concrete, b.Concrete):
		return fmt.Sprintf("Concrete: %v vs %v", a.Concrete, b.Concrete)
	case !reflect.DeepEqual(a.Segments, b.Segments):
		return fmt.Sprintf("Segments: %+v vs %+v", a.Segments, b.Segments)
	case !reflect.DeepEqual(a.MSRs, b.MSRs):
		return fmt.Sprintf("MSRs: %v vs %v", a.MSRs, b.MSRs)
	case !reflect.DeepEqual(a.SuspiciousMSRs, b.SuspiciousMSRs):
		return fmt.Sprintf("SuspiciousMSRs: %v vs %v", a.SuspiciousMSRs, b.SuspiciousMSRs)
	case a.Complex != b.Complex, a.Trivial != b.Trivial, a.SimulationOnly != b.SimulationOnly:
		return fmt.Sprintf("flags: %v/%v/%v vs %v/%v/%v",
			a.Complex, a.Trivial, a.SimulationOnly, b.Complex, b.Trivial, b.SimulationOnly)
	case a.WorkaroundCat != b.WorkaroundCat, a.Fix != b.Fix:
		return fmt.Sprintf("workaround/fix: %v/%v vs %v/%v", a.WorkaroundCat, a.Fix, b.WorkaroundCat, b.Fix)
	}
	return ""
}

// TestKernelEquivalenceAcrossSeeds is the equivalence contract of the
// matching kernel: over several generated corpora, every configuration
// must produce bit-identical Reports — decisions, concrete clauses,
// segments with their highlight spans, MSR extraction — and identical
// aggregate statistics, so enabling the kernel by default can never
// change a classification.
func TestKernelEquivalenceAcrossSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	naive := NewEngineConfig(Config{})
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			gt, err := corpus.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			errata := gt.DB.Errata()
			want := make([]*Report, len(errata))
			var wantStats Stats
			for i, e := range errata {
				want[i] = naive.Classify(e)
				wantStats.Accumulate(want[i])
			}
			for _, kc := range kernelConfigs[1:] {
				eng := NewEngineConfig(kc.cfg)
				var stats Stats
				for i, e := range errata {
					got := eng.Classify(e)
					if d := diffReports(want[i], got); d != "" {
						t.Fatalf("%s: erratum %s/%s differs: %s", kc.name, e.DocKey, e.ID, d)
					}
					if h, hn := Highlight(e, got), Highlight(e, want[i]); h != hn {
						t.Fatalf("%s: erratum %s/%s highlight differs:\n%s\nvs\n%s", kc.name, e.DocKey, e.ID, h, hn)
					}
					if !reflect.DeepEqual(got.UndecidedPairs(eng.Scheme()), want[i].UndecidedPairs(naive.Scheme())) {
						t.Fatalf("%s: erratum %s/%s undecided pairs differ", kc.name, e.DocKey, e.ID)
					}
					stats.Accumulate(got)
				}
				if stats != wantStats {
					t.Fatalf("%s: stats %+v, want %+v", kc.name, stats, wantStats)
				}
				if stats.ReductionFactor() != wantStats.ReductionFactor() {
					t.Fatalf("%s: reduction factor %v, want %v", kc.name, stats.ReductionFactor(), wantStats.ReductionFactor())
				}
			}
		})
	}
}

// TestKernelBasePatternsAllPrefiltered documents that every base rule
// pattern currently yields a required literal, so the always-run slow
// path is empty. If a future rule legitimately has no extractable
// literal, update the expectation here — correctness does not depend on
// it, only the kernel's pruning power.
func TestKernelBasePatternsAllPrefiltered(t *testing.T) {
	_, kernels := baseCompiled()
	for kind, kk := range kernels {
		st := kk.kernel.Stats()
		if st.AlwaysRun != 0 {
			t.Errorf("%v: %d of %d patterns have no literal and always run", kind, st.AlwaysRun, st.Patterns)
		}
		if st.Patterns != len(kk.pat) {
			t.Errorf("%v: pattern table size %d != kernel size %d", kind, len(kk.pat), st.Patterns)
		}
	}
}

// TestKernelConcurrentClassify drives one shared kernel engine from
// many goroutines — the shape annotate's worker pool uses — and checks
// every report against a sequential baseline. Under -race this also
// proves the memo cache is data-race free.
func TestKernelConcurrentClassify(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	errata := gt.DB.Errata()
	if len(errata) > 300 {
		errata = errata[:300]
	}
	naive := NewEngineConfig(Config{})
	want := make([]*Report, len(errata))
	for i, e := range errata {
		want[i] = naive.Classify(e)
	}
	eng := NewEngine()
	reports := make([]*Report, len(errata))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i] = eng.Classify(errata[i])
			}
		}()
	}
	for i := range errata {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range errata {
		if d := diffReports(want[i], reports[i]); d != "" {
			t.Fatalf("erratum %d differs under concurrency: %s", i, d)
		}
	}
}

// TestMemoCacheBound checks the clear-on-full policy: the cache never
// exceeds its bound and keeps answering correctly across the reset.
func TestMemoCacheBound(t *testing.T) {
	reg := obs.NewRegistry()
	clears := reg.Counter("test_memo_clears_total", "")
	c := newMemoCache[memoEntry](8, clears)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("clause %d", i)
		c.put(key, memoEntry{strong: []string{key}})
		if len(c.m) > 8 {
			t.Fatalf("cache grew to %d entries", len(c.m))
		}
		m, ok := c.get(key)
		if !ok || len(m.strong) != 1 || m.strong[0] != key {
			t.Fatalf("entry %d not readable after put", i)
		}
	}
	// 100 puts through an 8-entry clear-on-full cache reset 12 times
	// (on puts 9, 17, 25, ...), and the instrument sees each reset.
	if got := clears.Value(); got != 12 {
		t.Fatalf("clears counter = %d, want 12", got)
	}
}

// TestEngineSharesCompiledRules pins the hoisting satellite: two
// engines must reference the same compiled rule set (no recompilation
// per construction).
func TestEngineSharesCompiledRules(t *testing.T) {
	a, b := NewEngine(), NewEngineConfig(Config{})
	for k := range a.rules {
		if len(a.rules[k]) == 0 {
			t.Fatalf("kind %v has no rules", k)
		}
		if &a.rules[k][0] != &b.rules[k][0] {
			t.Errorf("kind %v: engines hold different compiled rule arrays", k)
		}
	}
	if a.kernels[domain.Trigger] == nil || a.kernels[domain.Trigger] != b.kernels[domain.Trigger] {
		t.Error("engines hold different kernels")
	}
}
