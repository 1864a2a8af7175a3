package rememberr

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (regenerating it from the built database), plus
// pipeline-stage benchmarks and the ablation benchmarks called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports the cost of recomputing that result
// from the in-memory database; the pipeline benchmarks report the cost
// of building the database itself.

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/specdoc"
	"repro/internal/store"
	"repro/internal/textsim"
	"repro/internal/timeline"
	"repro/pkg/domain"
	corpusprofile "repro/plugins/corpusprofile/intelamd"
)

// benchDB returns the shared built database (built once per process).
func benchDB(b *testing.B) *Database {
	b.Helper()
	return testDB(b)
}

func benchExperiment(b *testing.B, run func(*Experiments) *Experiment) {
	db := benchDB(b)
	x := NewExperiments(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := run(x)
		if !ex.Passed() {
			b.Fatalf("%s: checks failed", ex.ID)
		}
	}
}

// ----- Tables -----

func BenchmarkTable1ExampleErrata(b *testing.B) {
	benchExperiment(b, (*Experiments).Table1)
}

func BenchmarkTable3DocumentInventory(b *testing.B) {
	benchExperiment(b, (*Experiments).Table3)
}

func BenchmarkTable4to6Taxonomy(b *testing.B) {
	benchExperiment(b, (*Experiments).Table4to6)
}

func BenchmarkTable7ProposedFormat(b *testing.B) {
	benchExperiment(b, (*Experiments).Table7)
}

func BenchmarkCorpusTotals(b *testing.B) {
	benchExperiment(b, (*Experiments).CorpusTotals)
}

func BenchmarkDecisionReduction(b *testing.B) {
	benchExperiment(b, (*Experiments).DecisionReduction)
}

// ----- Figures -----

func BenchmarkFigure2Timeline(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure2)
}

func BenchmarkFigure3Heredity(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure3)
}

func BenchmarkFigure4SharedDisclosure(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure4)
}

func BenchmarkFigure5Latency(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure5)
}

func BenchmarkFigure6Workarounds(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure6)
}

func BenchmarkFigure7Fixes(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure7)
}

func BenchmarkFigure8Steps(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure8)
}

func BenchmarkFigure9Agreement(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure9)
}

func BenchmarkFigure10Triggers(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure10)
}

func BenchmarkFigure11TriggerCounts(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure11)
}

func BenchmarkFigure12Correlation(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure12)
}

func BenchmarkFigure13ClassEvolution(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure13)
}

func BenchmarkFigure14VendorClasses(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure14)
}

func BenchmarkFigure15External(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure15)
}

func BenchmarkFigure16Features(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure16)
}

func BenchmarkFigure17Contexts(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure17)
}

func BenchmarkFigure18Effects(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure18)
}

func BenchmarkFigure19MSRs(b *testing.B) {
	benchExperiment(b, (*Experiments).Figure19)
}

// BenchmarkObservations re-evaluates O1-O13.
func BenchmarkObservations(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := db.Observations()
		for _, o := range obs {
			if !o.Holds {
				b.Fatalf("%s fails", o.ID)
			}
		}
	}
}

// ----- Pipeline stages -----

// BenchmarkPipelineGenerate measures synthetic corpus generation.
func BenchmarkPipelineGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := corpus.Generate(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineRender measures document rendering (28 documents,
// 2,563 errata).
func BenchmarkPipelineRender(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	}
}

// BenchmarkPipelineParse measures parsing the full corpus.
func BenchmarkPipelineParse(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := specdoc.ParseAll(texts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineDedup measures deduplication of the full corpus.
func BenchmarkPipelineDedup(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	truth := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truth[corpus.EntryRef(e)] = e.Key
	}
	oracle := func(x, y *domain.Erratum) bool {
		return truth[corpus.EntryRef(x)] != "" && truth[corpus.EntryRef(x)] == truth[corpus.EntryRef(y)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, _, err := specdoc.ParseAll(texts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := dedup.Deduplicate(db, dedup.Options{Oracle: oracle})
		if err != nil {
			b.Fatal(err)
		}
		if res.UniqueIntel != corpusprofile.TargetIntelUnique {
			b.Fatalf("unique = %d", res.UniqueIntel)
		}
	}
}

// benchWorkerCounts returns the worker counts exercised by the
// parallel pipeline benchmarks: sequential, and the machine's full
// GOMAXPROCS when that differs.
func benchWorkerCounts() []int {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkPipelineRenderParallel measures document rendering across
// worker counts.
func BenchmarkPipelineRenderParallel(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run("workers-"+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				specdoc.WriteAllParallel(gt.DB, specdoc.WriteOptions{}, w)
			}
		})
	}
}

// BenchmarkPipelineParseParallel measures parsing across worker counts.
func BenchmarkPipelineParseParallel(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	for _, w := range benchWorkerCounts() {
		b.Run("workers-"+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := specdoc.ParseAllParallel(texts, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineDedupParallel measures deduplication across worker
// counts (candidate scoring parallelizes; oracle review stays
// sequential).
func BenchmarkPipelineDedupParallel(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	truth := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truth[corpus.EntryRef(e)] = e.Key
	}
	oracle := func(x, y *domain.Erratum) bool {
		return truth[corpus.EntryRef(x)] != "" && truth[corpus.EntryRef(x)] == truth[corpus.EntryRef(y)]
	}
	for _, w := range benchWorkerCounts() {
		b.Run("workers-"+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, _, err := specdoc.ParseAll(texts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := dedup.Deduplicate(db, dedup.Options{Oracle: oracle, Parallelism: w})
				if err != nil {
					b.Fatal(err)
				}
				if res.UniqueIntel != corpusprofile.TargetIntelUnique {
					b.Fatalf("unique = %d", res.UniqueIntel)
				}
			}
		})
	}
}

// BenchmarkPipelineBuildParallel measures the end-to-end build across
// worker counts.
func BenchmarkPipelineBuildParallel(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run("workers-"+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Build(WithParallelism(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineClassify measures the regex engine on single errata.
func BenchmarkPipelineClassify(b *testing.B) {
	db := benchDB(b)
	engine := classify.NewEngine()
	errata := db.Unique()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Classify(errata[i%len(errata)])
	}
}

// BenchmarkPipelineAnnotate measures the full four-eyes protocol.
func BenchmarkPipelineAnnotate(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	truth := make(map[string]*domain.Annotation)
	for _, e := range gt.DB.Errata() {
		ann := e.Ann
		truth[corpus.EntryRef(e)] = &ann
	}
	truthFn := func(e *domain.Erratum) *domain.Annotation { return truth[corpus.EntryRef(e)] }
	engine := classify.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, _, err := specdoc.ParseAll(texts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dedup.Deduplicate(db, dedup.Options{}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := annotate.Run(db, engine, truthFn, annotate.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBuild measures the end-to-end build.
func BenchmarkPipelineBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreEncode measures JSON serialization of the database.
func BenchmarkStoreEncode(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Encode(db.Core()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures a composite query over the database.
func BenchmarkQuery(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := db.Query().Vendor(Intel).WithClass("Trg_POW").MinTriggers(2).Count()
		if n == 0 {
			b.Fatal("empty query result")
		}
	}
}

// BenchmarkCampaignPlan measures plan derivation.
func BenchmarkCampaignPlan(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.PlanCampaign(DefaultCampaignOptions())) == 0 {
			b.Fatal("empty plan")
		}
	}
}

// ----- Ablations (DESIGN.md section 6) -----

// BenchmarkAblationSimilarityMetrics compares the title-similarity
// metrics available for Intel duplicate ranking: runtime and whether the
// recovered unique count stays exact.
func BenchmarkAblationSimilarityMetrics(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	truth := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truth[corpus.EntryRef(e)] = e.Key
	}
	oracle := func(x, y *domain.Erratum) bool {
		return truth[corpus.EntryRef(x)] != "" && truth[corpus.EntryRef(x)] == truth[corpus.EntryRef(y)]
	}
	for _, metric := range []textsim.Metric{
		textsim.MetricJaccard, textsim.MetricDice,
		textsim.MetricLevenshtein, textsim.MetricShingle2,
	} {
		b.Run(string(metric), func(b *testing.B) {
			uniq := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, _, err := specdoc.ParseAll(texts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := dedup.Deduplicate(db, dedup.Options{Metric: metric, Oracle: oracle})
				if err != nil {
					b.Fatal(err)
				}
				uniq = res.UniqueIntel
			}
			b.ReportMetric(float64(uniq), "unique")
		})
	}
}

// BenchmarkAblationDedupLSH compares exact O(n^2) candidate generation
// against the MinHash/LSH index on the full corpus.
func BenchmarkAblationDedupLSH(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	truth := make(map[string]string)
	for _, e := range gt.DB.Errata() {
		truth[corpus.EntryRef(e)] = e.Key
	}
	oracle := func(x, y *domain.Erratum) bool {
		return truth[corpus.EntryRef(x)] != "" && truth[corpus.EntryRef(x)] == truth[corpus.EntryRef(y)]
	}
	for _, useLSH := range []bool{false, true} {
		name := "exact-scan"
		if useLSH {
			name = "minhash-lsh"
		}
		b.Run(name, func(b *testing.B) {
			uniq := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, _, err := specdoc.ParseAll(texts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := dedup.Deduplicate(db, dedup.Options{Oracle: oracle, UseLSH: useLSH})
				if err != nil {
					b.Fatal(err)
				}
				uniq = res.UniqueIntel
			}
			b.ReportMetric(float64(uniq), "unique")
		})
	}
}

// BenchmarkAblationClassifyKernel ablates the two layers of the
// classify matching kernel — the Aho-Corasick literal prefilter and the
// per-clause memo cache — on the built database's unique errata. All
// four configurations produce bit-identical reports (enforced by the
// classify equivalence tests); this grid measures what each layer buys.
func BenchmarkAblationClassifyKernel(b *testing.B) {
	db := benchDB(b)
	errata := db.Unique()
	grid := []struct {
		name string
		cfg  classify.Config
	}{
		{"naive", classify.Config{}},
		{"prefilter", classify.Config{Prefilter: true}},
		{"memo", classify.Config{Memo: true}},
		{"prefilter-memo", classify.Config{Prefilter: true, Memo: true}},
	}
	for _, g := range grid {
		b.Run("impl="+g.name, func(b *testing.B) {
			engine := classify.NewEngineConfig(g.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.Classify(errata[i%len(errata)])
			}
		})
	}
}

// BenchmarkAblationInterpolation compares disclosure inference with and
// without sequential-number interpolation.
func BenchmarkAblationInterpolation(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	db, _, err := specdoc.ParseAll(texts)
	if err != nil {
		b.Fatal(err)
	}
	for _, interp := range []bool{true, false} {
		name := "interpolate"
		if !interp {
			name = "first-revision-fallback"
		}
		b.Run(name, func(b *testing.B) {
			var st timeline.Stats
			for i := 0; i < b.N; i++ {
				st = timeline.InferDisclosures(db, timeline.Options{Interpolate: interp})
			}
			b.ReportMetric(float64(st.Interpolated), "interpolated")
			b.ReportMetric(float64(st.Fallback), "fallback")
		})
	}
}

// BenchmarkAblationAnnotatorError sweeps the annotator error rate and
// reports the first-step agreement, showing how the protocol's
// discussion load scales with annotator quality.
func BenchmarkAblationAnnotatorError(b *testing.B) {
	gt, err := corpus.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	texts := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	truth := make(map[string]*domain.Annotation)
	for _, e := range gt.DB.Errata() {
		ann := e.Ann
		truth[corpus.EntryRef(e)] = &ann
	}
	truthFn := func(e *domain.Erratum) *domain.Annotation { return truth[corpus.EntryRef(e)] }
	engine := classify.NewEngine()
	for _, errRate := range []float64{0.02, 0.08, 0.20} {
		b.Run(fmt2(errRate), func(b *testing.B) {
			agreement := 0.0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, _, err := specdoc.ParseAll(texts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dedup.Deduplicate(db, dedup.Options{}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				opts := annotate.DefaultOptions()
				opts.ErrorA, opts.ErrorB = errRate, errRate
				res, err := annotate.Run(db, engine, truthFn, opts)
				if err != nil {
					b.Fatal(err)
				}
				agreement = res.Steps[0].AgreementPct
			}
			b.ReportMetric(agreement, "step1-agreement-%")
		})
	}
}

func fmt2(f float64) string {
	return "err-" + string([]byte{'0' + byte(int(f*100)/10), '0' + byte(int(f*100)%10)}) + "pct"
}

// BenchmarkCaseStudyDirectedVsRandom runs the Section VI directed-
// testing case study and reports the detection counts of both
// strategies as metrics.
func BenchmarkCaseStudyDirectedVsRandom(b *testing.B) {
	db := benchDB(b)
	var res *CaseStudyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = db.SimulateDirectedCampaign(DefaultCaseStudyOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Directed.Detected), "directed-bugs")
	b.ReportMetric(float64(res.Random.Detected), "random-bugs")
	b.ReportMetric(res.Speedup, "ratio")
}
