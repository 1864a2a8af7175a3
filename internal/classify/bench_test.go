package classify

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/pkg/domain"
)

var benchErrata []*domain.Erratum

func benchCorpus(b *testing.B) []*domain.Erratum {
	b.Helper()
	if benchErrata == nil {
		gt, err := corpus.Generate(1)
		if err != nil {
			b.Fatal(err)
		}
		benchErrata = gt.DB.Errata()
	}
	return benchErrata
}

// BenchmarkClassifyEngine compares the matching strategies on the
// generated corpus. Sub-benchmark names are benchstat-friendly
// (impl=<variant>), so runs can be diffed per variant:
//
//	go test -run '^$' -bench BenchmarkClassifyEngine -benchmem ./internal/classify/
//
// or via `make bench-classify`, which also emits BENCH_classify.json.
func BenchmarkClassifyEngine(b *testing.B) {
	errata := benchCorpus(b)
	for _, kc := range kernelConfigs {
		b.Run("impl="+kc.name, func(b *testing.B) {
			eng := NewEngineConfig(kc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Classify(errata[i%len(errata)])
			}
		})
	}
}

// BenchmarkClassifyEngineObs measures the cost of wiring an obs
// registry into the production configuration (prefilter+memo). The
// instrumented hot path is a handful of atomic adds per Classify; the
// EXPERIMENTS.md budget for the obs=on/obs=off gap is <2%.
func BenchmarkClassifyEngineObs(b *testing.B) {
	errata := benchCorpus(b)
	for _, variant := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"obs=off", nil},
		{"obs=on", obs.NewRegistry()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			eng := NewEngineConfig(Config{Prefilter: true, Memo: true, Obs: variant.reg})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Classify(errata[i%len(errata)])
			}
		})
	}
}

// BenchmarkClassifyEngineColdMemo measures the kernel with a fresh memo
// per corpus pass — the first-build cost, before clause reuse pays off.
func BenchmarkClassifyEngineColdMemo(b *testing.B) {
	errata := benchCorpus(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		for _, e := range errata {
			eng.Classify(e)
		}
	}
}

// BenchmarkNewEngine pins the construction cost: after hoisting the
// rule compilation to package level, constructing an engine must not
// recompile any regexes.
func BenchmarkNewEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e := NewEngine(); e == nil {
			b.Fatal("nil engine")
		}
	}
}
