package rememberr

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestOptionOrder pins the documented composition semantics: options
// apply in order over the defaults, so a later option wins, and an
// explicit zero survives. Options are applied exactly as Build does,
// without running a build.
func TestOptionOrder(t *testing.T) {
	apply := func(options ...Option) buildConfig {
		opts := defaultBuildConfig()
		for _, o := range options {
			o(&opts)
		}
		return opts
	}

	if got := apply(WithSeed(3), WithSeed(9)); got.Seed != 9 {
		t.Errorf("later WithSeed did not win: seed = %d", got.Seed)
	}
	if got := apply(WithParallelism(8), WithLSH(true)); got.Parallelism != 8 || !got.UseLSH || got.Seed != 1 {
		t.Errorf("options did not compose over the defaults: %+v", got)
	}
	if got := apply(WithSimilarityThreshold(0)); got.SimilarityThreshold != 0 {
		t.Errorf("WithSimilarityThreshold(0) resolved to %v, want explicit 0", got.SimilarityThreshold)
	}
}

// TestBuildTraceAndObservability is the tentpole acceptance test for
// the build side: the span tree accounts for at least 90% of the build
// wall time, and the registry receives stage gauges plus the classify
// and worker-pool counters.
func TestBuildTraceAndObservability(t *testing.T) {
	reg := NewRegistry()
	_, rep, err := Build(WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trace
	if tr == nil || tr.Name != "build" {
		t.Fatalf("missing build trace: %+v", tr)
	}
	var names []string
	for _, c := range tr.Children {
		names = append(names, c.Name)
		if c.Duration() <= 0 {
			t.Errorf("stage %s has no duration", c.Name)
		}
	}
	want := []string{"corpus", "render", "parse", "dedup", "annotate", "timeline", "validate"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	if covered := tr.ChildDuration(); float64(covered) < 0.9*float64(tr.Duration()) {
		t.Errorf("stage spans cover %v of %v (<90%%)", covered, tr.Duration())
	}
	// The annotate stage exposes its phases as children.
	for _, c := range tr.Children {
		if c.Name == "annotate" {
			if len(c.Children) != 3 || c.Children[0].Name != "classify" {
				t.Errorf("annotate children = %+v, want classify/protocol/propagate", c.Children)
			}
		}
	}
	// The trace is JSON-serializable for report embedding.
	if _, err := json.Marshal(tr); err != nil {
		t.Errorf("trace does not marshal: %v", err)
	}

	// Registry-side evidence that every instrumented layer recorded.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	for _, metric := range []string{
		`rememberr_build_stage_seconds{stage="parse"}`,
		`rememberr_build_stage_items{stage="corpus"}`,
		"rememberr_classify_memo_hits_total",
		"rememberr_classify_memo_misses_total",
		"rememberr_classify_prefilter_candidates_total",
		"rememberr_parallel_tasks_total",
	} {
		if !strings.Contains(out, metric) {
			t.Errorf("exposition missing %s", metric)
		}
	}

	// A default build is untraced in the registry sense but still
	// carries the trace tree.
	_, rep2, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Trace == nil || len(rep2.Trace.Children) != len(want) {
		t.Fatalf("untraced build lost its trace tree: %+v", rep2.Trace)
	}
}
