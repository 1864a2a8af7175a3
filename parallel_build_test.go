package rememberr

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestBuildParallelDeterminism is the tentpole contract: for a fixed
// seed, the parallel build must produce a database and report
// byte-identical to the sequential one.
func TestBuildParallelDeterminism(t *testing.T) {
	dbSeq, repSeq, err := Build(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	dbPar, repPar, err := Build(WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical database.
	encSeq, err := store.Encode(dbSeq.Core())
	if err != nil {
		t.Fatal(err)
	}
	encPar, err := store.Encode(dbPar.Core())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encSeq, encPar) {
		t.Fatal("parallel build is not byte-identical to the sequential build")
	}

	// Identical corpus statistics.
	if stSeq, stPar := dbSeq.Stats(), dbPar.Stats(); !reflect.DeepEqual(stSeq, stPar) {
		t.Errorf("stats differ: sequential %+v, parallel %+v", stSeq, stPar)
	}

	// Identical per-erratum cluster keys, in document order.
	eSeq, ePar := dbSeq.Errata(), dbPar.Errata()
	if len(eSeq) != len(ePar) {
		t.Fatalf("errata counts differ: %d vs %d", len(eSeq), len(ePar))
	}
	for i := range eSeq {
		if eSeq[i].FullID() != ePar[i].FullID() || eSeq[i].Key != ePar[i].Key {
			t.Fatalf("erratum %d differs: %s/%s vs %s/%s",
				i, eSeq[i].FullID(), eSeq[i].Key, ePar[i].FullID(), ePar[i].Key)
		}
	}

	// Identical build-report contents.
	if !reflect.DeepEqual(repSeq.Diagnostics, repPar.Diagnostics) {
		t.Error("parser diagnostics differ")
	}
	if repSeq.Dedup.ConfirmedPairs != repPar.Dedup.ConfirmedPairs ||
		len(repSeq.Dedup.Reviewed) != len(repPar.Dedup.Reviewed) ||
		repSeq.Dedup.UniqueIntel != repPar.Dedup.UniqueIntel ||
		repSeq.Dedup.UniqueAMD != repPar.Dedup.UniqueAMD ||
		repSeq.Dedup.ExactTitleClusters != repPar.Dedup.ExactTitleClusters {
		t.Errorf("dedup results differ: %+v vs %+v", repSeq.Dedup, repPar.Dedup)
	}
	for i := range repSeq.Dedup.Reviewed {
		a, b := repSeq.Dedup.Reviewed[i], repPar.Dedup.Reviewed[i]
		if a.Score != b.Score || a.Confirmed != b.Confirmed ||
			a.A.FullID() != b.A.FullID() || a.B.FullID() != b.B.FullID() {
			t.Fatalf("review %d differs", i)
		}
	}
	if repSeq.Annotation.HumanDecisions != repPar.Annotation.HumanDecisions ||
		!reflect.DeepEqual(repSeq.Annotation.Steps, repPar.Annotation.Steps) {
		t.Error("annotation protocol results differ")
	}
	if !reflect.DeepEqual(repSeq.Timeline, repPar.Timeline) {
		t.Errorf("timeline stats differ: %+v vs %+v", repSeq.Timeline, repPar.Timeline)
	}
}

// TestBuildExplicitZeroThreshold is the facade-level regression test
// for the zero-value option footgun: WithSimilarityThreshold(0) must
// surface every candidate pair for review instead of silently falling
// back to 0.6 — and must still recover the exact unique counts, since
// the oracle is ground truth.
func TestBuildExplicitZeroThreshold(t *testing.T) {
	def, repDef, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	all, repAll, err := Build(WithSimilarityThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(repAll.Dedup.Reviewed) <= len(repDef.Dedup.Reviewed) {
		t.Fatalf("threshold 0 reviewed %d pairs, default reviewed %d: explicit zero was swallowed",
			len(repAll.Dedup.Reviewed), len(repDef.Dedup.Reviewed))
	}
	below := 0
	for _, p := range repAll.Dedup.Reviewed {
		if p.Score < 0.6 {
			below++
		}
	}
	if below == 0 {
		t.Error("threshold 0 surfaced no pair below 0.6; the default threshold still applies")
	}
	if s := all.Stats(); s.Unique != def.Stats().Unique {
		t.Errorf("threshold 0 changed unique count: %d vs %d", s.Unique, def.Stats().Unique)
	}
}

// TestBuildExplicitZeroStepsRejected: WithAnnotationSteps(0) must
// surface the validation error of the annotation stage instead of
// silently running 7 steps.
func TestBuildExplicitZeroStepsRejected(t *testing.T) {
	_, _, err := Build(WithAnnotationSteps(0))
	if err == nil {
		t.Fatal("explicit AnnotationSteps 0 built successfully; want a validation error")
	}
	if !strings.Contains(err.Error(), "Steps") {
		t.Errorf("unexpected error for explicit zero steps: %v", err)
	}
}
