package rememberr

import (
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/pkg/domain"
)

// TestBuildIndexSingleflight holds one index construction open and
// proves deterministically that every concurrent caller joins it: the
// injected builder runs exactly once and all callers get pointer-equal
// results. Run under -race.
func TestBuildIndexSingleflight(t *testing.T) {
	gt, err := corpus.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	db := FromCore(gt.DB)

	entered := make(chan struct{})
	gate := make(chan struct{})
	var builds int
	leaderDone := make(chan *index.Index, 1)
	go func() {
		leaderDone <- db.buildIndexWith(func(c *domain.Database) *index.Index {
			builds++
			close(entered)
			<-gate
			return index.Build(c)
		})
	}()
	<-entered

	// While the leader is blocked inside the builder, every other
	// caller must join its flight — their builder must never run. The
	// flightJoined seam reports each join, so the gate opens only
	// after all joiners are provably attached to the leader's flight.
	const joiners = 100
	var joinedWG sync.WaitGroup
	joinedWG.Add(joiners)
	db.flightJoined = func() { joinedWG.Done() }
	results := make([]*index.Index, joiners)
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = db.buildIndexWith(func(*domain.Database) *index.Index {
				t.Error("joiner executed its own index build")
				return nil
			})
		}(i)
	}
	joinedWG.Wait()
	close(gate)
	wg.Wait()
	leader := <-leaderDone

	if builds != 1 {
		t.Fatalf("builder ran %d times, want 1", builds)
	}
	if leader == nil {
		t.Fatal("leader got nil index")
	}
	for i, ix := range results {
		if ix != leader {
			t.Fatalf("joiner %d got a different index pointer", i)
		}
	}
	if db.Index() != leader {
		t.Fatal("Index() does not expose the singleflight result")
	}

	// After the flight completes, a fresh call builds a new snapshot
	// (BuildIndex stays a rebuild, not a cache).
	if again := db.BuildIndex(); again == leader {
		t.Fatal("post-flight BuildIndex returned the stale index")
	}
}

// TestBuildIndexConcurrentSmoke hammers the real BuildIndex from many
// goroutines under -race; every caller must get a usable index.
func TestBuildIndexConcurrentSmoke(t *testing.T) {
	gt, err := corpus.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	db := FromCore(gt.DB)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix := db.BuildIndex()
			if ix == nil || ix.Size() == 0 {
				t.Error("BuildIndex returned an unusable index")
			}
		}()
	}
	wg.Wait()
	if db.Index() == nil {
		t.Fatal("no index stored after concurrent builds")
	}
}

// TestFromCoreContract pins the provenance contract of store-loaded
// databases: Report is nil, Index is nil until BuildIndex, and the
// stats/serving accessors work without panicking.
func TestFromCoreContract(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	db := FromCore(gt.DB)
	if db.Report() != nil {
		t.Error("FromCore database has a non-nil Report")
	}
	if db.Index() != nil {
		t.Error("FromCore database has a non-nil Index before BuildIndex")
	}
	if s := db.Stats(); s.Total == 0 || s.Documents == 0 {
		t.Errorf("FromCore stats empty: %+v", s)
	}
	if len(db.Errata()) == 0 || len(db.Unique()) == 0 || len(db.Documents()) == 0 {
		t.Error("FromCore accessors returned empty data")
	}
	if db.Scheme() == nil {
		t.Error("FromCore database has no scheme")
	}
	ix := db.BuildIndex()
	if ix == nil || db.Index() != ix {
		t.Error("BuildIndex did not store the index")
	}
}
