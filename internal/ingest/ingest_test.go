package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/pipeline"
	"repro/internal/specdoc"
	"repro/internal/store"
	"repro/internal/textsim"
	"repro/pkg/domain"
)

var update = flag.Bool("update", false, "rewrite the pinned ingest digests")

// seedTexts renders the corpus for one seed into ingestible document
// texts, in deterministic (document-key) order.
func seedTexts(t testing.TB, seed int64) []string {
	t.Helper()
	gt, err := corpus.Generate(seed)
	if err != nil {
		t.Fatalf("corpus.Generate(%d): %v", seed, err)
	}
	rendered := specdoc.WriteAll(gt.DB, specdoc.WriteOptions{})
	keys := make([]string, 0, len(rendered))
	for k := range rendered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	texts := make([]string, 0, len(keys))
	for _, k := range keys {
		texts = append(texts, rendered[k])
	}
	return texts
}

// mustEncode returns the canonical byte form of a database, the
// comparison primitive of the convergence contract.
func mustEncode(t testing.TB, db *domain.Database) []byte {
	t.Helper()
	b, err := store.Encode(db)
	if err != nil {
		t.Fatalf("store.Encode: %v", err)
	}
	return b
}

// splitBatches cuts texts into 1..len batches at random boundaries.
func splitBatches(rng *rand.Rand, texts []string) [][]string {
	if len(texts) == 0 {
		return nil
	}
	var batches [][]string
	for start := 0; start < len(texts); {
		n := 1 + rng.Intn(len(texts)-start)
		batches = append(batches, texts[start:start+n])
		start += n
	}
	return batches
}

// applyMerged applies one batch and carries ix along to the published
// snapshot with index.MergeDelta, as serve.SwapDelta does for a served
// snapshot, so the convergence tests pin the delta merge over real
// ingest snapshots.
func applyMerged(t testing.TB, in *Ingester, ix *index.Index, batch []string) (*Result, *index.Index) {
	t.Helper()
	res, err := in.Apply(batch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Changed {
		ix, _ = index.MergeDelta(ix, res.DB)
	}
	return res, ix
}

// TestApplyMatchesColdBuild pins the trivial end of the convergence
// contract: one Apply over everything equals Build over everything.
func TestApplyMatchesColdBuild(t *testing.T) {
	texts := seedTexts(t, 1)
	wantDB, wantIX, err := Build(nil, texts, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	in := New(Options{Parallelism: 4})
	_, ix := in.Snapshot()
	res, ix := applyMerged(t, in, ix, texts)
	if !res.Changed || res.Docs != len(texts) {
		t.Fatalf("Apply: Changed=%v Docs=%d, want true/%d", res.Changed, res.Docs, len(texts))
	}
	if got, want := mustEncode(t, res.DB), mustEncode(t, wantDB); !bytes.Equal(got, want) {
		t.Fatalf("single-batch Apply database differs from cold Build (%d vs %d bytes)", len(got), len(want))
	}
	if got, want := ix.DebugDump(), wantIX.DebugDump(); !bytes.Equal(got, want) {
		t.Fatalf("single-batch Apply index differs from cold Build:\n%s", firstDiff(got, want))
	}
}

// TestIngestBuildDigests pins the bytes of a cold ingest Build over
// each of seeds 1-3: one "seed sha256" line per seed of the canonical
// encoding. The convergence suites compare ingest runs of one commit
// with each other; this test catches a byte that moves between commits.
// Re-pin with -update only for a deliberate change to ingest's output.
func TestIngestBuildDigests(t *testing.T) {
	var got strings.Builder
	for seed := int64(1); seed <= 3; seed++ {
		db, _, err := Build(nil, seedTexts(t, seed), Options{})
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		fmt.Fprintf(&got, "%d %x\n", seed, sha256.Sum256(mustEncode(t, db)))
	}
	pin := filepath.Join("testdata", "ingest_build_digests.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pin, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pin)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("ingest Build digests differ from %s; run with -update only for a deliberate output change.\ngot:\n%swant:\n%s",
			pin, got.String(), want)
	}
}

// TestConvergenceAcrossArrivalOrders is the convergence contract
// proper: for every corpus seed of the equivalence matrix, any document
// arrival order and any batch split — ingested incrementally with delta
// index merges — lands on a database byte-identical to the cold Build
// over the union, with a structurally identical index, at every worker
// count.
func TestConvergenceAcrossArrivalOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence matrix is slow; run without -short")
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		texts := seedTexts(t, seed)
		// One shared artifact cache per seed: trials after the first
		// re-parse nothing, and the cache path itself is exercised.
		cache := pipeline.NewMemCache()
		wantDB, wantIX, err := Build(nil, texts, Options{Parallelism: 4, Cache: cache})
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		want := mustEncode(t, wantDB)
		wantDump := wantIX.DebugDump()
		for _, par := range []int{1, 4} {
			rng := rand.New(rand.NewSource(seed * 101))
			for trial := 0; trial < 3; trial++ {
				perm := append([]string(nil), texts...)
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				in := New(Options{Parallelism: par, Cache: cache})
				_, ix := in.Snapshot()
				var last *Result
				for _, batch := range splitBatches(rng, perm) {
					last, ix = applyMerged(t, in, ix, batch)
				}
				got := mustEncode(t, last.DB)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d par %d trial %d: converged database differs from cold Build", seed, par, trial)
				}
				// ix was produced by the chain of MergeDelta calls;
				// comparing it against the cold index.Build pins the delta
				// merge itself, not just the database.
				if dump := ix.DebugDump(); !bytes.Equal(dump, wantDump) {
					t.Fatalf("seed %d par %d trial %d: merged index differs from cold Build:\n%s",
						seed, par, trial, firstDiff(dump, wantDump))
				}
			}
		}
	}
}

// TestConvergenceFromSeededDatabase covers the NewFrom path: an
// ingester seeded with a live database (whose Intel clusters freeze)
// must converge to Build over the same initial database and the same
// arriving texts, regardless of arrival order.
func TestConvergenceFromSeededDatabase(t *testing.T) {
	texts := seedTexts(t, 2)
	half := len(texts) / 2
	initialDB, _, err := Build(nil, texts[:half], Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build(initial): %v", err)
	}
	arriving := texts[half:]
	wantDB, wantIX, err := Build(initialDB, arriving, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build(union): %v", err)
	}
	want := mustEncode(t, wantDB)
	wantDump := wantIX.DebugDump()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		perm := append([]string(nil), arriving...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		in := NewFrom(initialDB, Options{Parallelism: 4})
		_, ix := in.Snapshot()
		var last *Result
		for _, batch := range splitBatches(rng, perm) {
			last, ix = applyMerged(t, in, ix, batch)
		}
		if got := mustEncode(t, last.DB); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: seeded ingest database differs from cold Build", trial)
		}
		if dump := ix.DebugDump(); !bytes.Equal(dump, wantDump) {
			t.Fatalf("trial %d: seeded ingest index differs from cold Build:\n%s",
				trial, firstDiff(dump, wantDump))
		}
	}
}

// TestApplyIdempotentAndRevision covers re-ingest semantics: a
// byte-identical document is skipped without publishing a snapshot, a
// revised document replaces its predecessor, and the post-revision
// state equals a cold Build where the revised text stands for the key.
func TestApplyIdempotentAndRevision(t *testing.T) {
	texts := seedTexts(t, 3)
	in := New(Options{Parallelism: 4})
	_, ix := in.Snapshot()
	_, ix = applyMerged(t, in, ix, texts)
	db0, ix0 := in.Snapshot()

	// Idempotent re-ingest: same bytes, no new snapshot.
	res, err := in.Apply([]string{texts[0]})
	if err != nil {
		t.Fatalf("re-Apply: %v", err)
	}
	if res.Changed || res.Skipped != 1 || res.Docs != 0 {
		t.Fatalf("re-Apply: Changed=%v Skipped=%d Docs=%d, want false/1/0", res.Changed, res.Skipped, res.Docs)
	}
	if gotDB, gotIX := in.Snapshot(); gotDB != db0 || gotIX != ix0 {
		t.Fatalf("idempotent re-ingest replaced the snapshot")
	}

	// Revision: re-render the first document with its last erratum
	// dropped and ingest the new text; the revised text wins its key.
	docs := db0.Documents()
	victim := docs[0]
	if len(victim.Errata) < 2 {
		t.Fatalf("victim document %s has %d errata, need >= 2", victim.Key, len(victim.Errata))
	}
	trimmed := *victim
	trimmed.Errata = victim.Errata[:len(victim.Errata)-1]
	revised := specdoc.Write(&trimmed, specdoc.WriteOptions{})

	res, ix = applyMerged(t, in, ix, []string{revised})
	if !res.Changed || res.Replaced != 1 {
		t.Fatalf("Apply(revised): Changed=%v Replaced=%d, want true/1", res.Changed, res.Replaced)
	}
	gotDB, gotIX := in.Snapshot()
	if gotDB != res.DB || gotIX == ix0 {
		t.Fatalf("Snapshot after a changing Apply still returns the previous snapshot's index")
	}
	if got := len(gotDB.Docs[victim.Key].Errata); got != len(victim.Errata)-1 {
		t.Fatalf("revised document has %d errata, want %d", got, len(victim.Errata)-1)
	}
	// The old snapshot is untouched (copy-on-write).
	if got := len(db0.Docs[victim.Key].Errata); got != len(victim.Errata) {
		t.Fatalf("revision mutated the previous snapshot (%d errata)", got)
	}

	// Cold baseline over the union with last-wins revision.
	union := append(append([]string(nil), texts...), revised)
	wantDB, wantIX, err := Build(nil, union, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build(union): %v", err)
	}
	if got, want := mustEncode(t, gotDB), mustEncode(t, wantDB); !bytes.Equal(got, want) {
		t.Fatalf("post-revision database differs from cold Build")
	}
	if got, want := ix.DebugDump(), wantIX.DebugDump(); !bytes.Equal(got, want) {
		t.Fatalf("post-revision merged index differs from cold Build:\n%s", firstDiff(got, want))
	}
	if got, want := gotIX.DebugDump(), wantIX.DebugDump(); !bytes.Equal(got, want) {
		t.Fatalf("post-revision Snapshot index differs from cold Build:\n%s", firstDiff(got, want))
	}
}

// TestArtifactCacheHits pins the per-document artifact cache: a second
// ingester over the same cache re-parses nothing and still converges,
// and every cache hit yields exactly what a fresh parse yields — the
// document byte-identical in both store encodings (its entries still
// unkeyed and undated: keys and disclosure dates are assigned at Apply
// time) and the same diagnostics.
func TestArtifactCacheHits(t *testing.T) {
	texts := seedTexts(t, 4)
	cache := pipeline.NewMemCache()
	in1 := New(Options{Parallelism: 4, Cache: cache})
	res1, err := in1.Apply(texts)
	if err != nil {
		t.Fatalf("Apply 1: %v", err)
	}
	misses := in1.cacheMisses.Value()
	if misses != int64(len(texts)) {
		t.Fatalf("first pass: %d cache misses, want %d", misses, len(texts))
	}
	in2 := New(Options{Parallelism: 4, Cache: cache})
	res2, err := in2.Apply(texts)
	if err != nil {
		t.Fatalf("Apply 2: %v", err)
	}
	if hits := in2.cacheHits.Value(); hits != int64(len(texts)) {
		t.Fatalf("second pass: %d cache hits, want %d", hits, len(texts))
	}
	if got, want := mustEncode(t, res2.DB), mustEncode(t, res1.DB); !bytes.Equal(got, want) {
		t.Fatalf("cached parse converged to a different database")
	}

	fresh, cached := New(Options{}), New(Options{Cache: cache})
	var diags, unkeyed, undated int
	for _, text := range texts {
		want, err := fresh.parseOne(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.parseOne(text)
		if err != nil {
			t.Fatal(err)
		}
		key := want.doc.Key
		if got.digest != want.digest {
			t.Fatalf("%s: cached digest %s, fresh %s", key, got.digest, want.digest)
		}
		for _, enc := range []func(testing.TB, *domain.Document) []byte{docV1, docV2} {
			if g, w := enc(t, got.doc), enc(t, want.doc); !bytes.Equal(g, w) {
				t.Fatalf("%s: cached document differs from a fresh parse:\n got %s\nwant %s", key, g, w)
			}
		}
		if !reflect.DeepEqual(got.diags, want.diags) {
			t.Fatalf("%s: cached diagnostics %+v, fresh %+v", key, got.diags, want.diags)
		}
		diags += len(want.diags)
		for _, e := range want.doc.Errata {
			if e.Key == "" {
				unkeyed++
			}
			if e.Disclosed.IsZero() {
				undated++
			}
		}
	}
	if hits := cached.cacheHits.Value(); hits != int64(len(texts)) {
		t.Fatalf("per-document pass: %d cache hits, want %d", hits, len(texts))
	}
	if diags == 0 || unkeyed == 0 || undated == 0 {
		t.Fatalf("corpus exercises %d diagnostics, %d unkeyed and %d undated entries; want some of each", diags, unkeyed, undated)
	}
}

// TestArtifactCacheCorruption pins the documented fallback of the
// per-document artifact cache: an artifact that does not decode to
// exactly one FormatVersion 2 document degrades to a cache miss, the
// text is parsed afresh, and the batch converges to the database the
// intact cache gives.
func TestArtifactCacheCorruption(t *testing.T) {
	texts := seedTexts(t, 4)[:6]
	cache := pipeline.NewMemCache()
	res, err := New(Options{Cache: cache}).Apply(texts)
	if err != nil {
		t.Fatal(err)
	}
	want := mustEncode(t, res.DB)

	// envelope re-marshals an intact artifact after f rewrote its
	// database bytes.
	envelope := func(f func(db []byte) []byte) func([]byte) []byte {
		return func(raw []byte) []byte {
			a, err := store.UnmarshalArtifact[[]specdoc.Diagnostic](raw)
			if err != nil {
				t.Fatal(err)
			}
			a.DB = f(a.DB)
			b, err := a.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(raw []byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"prefix truncated", func(raw []byte) []byte { return raw[:2] }},
		{"metadata length past the end", func(raw []byte) []byte {
			binary.BigEndian.PutUint32(raw, uint32(len(raw)))
			return raw
		}},
		{"empty", func([]byte) []byte { return nil }},
		{"not json", func([]byte) []byte { return []byte("REMBERR2 not an envelope") }},
		{"database truncated", envelope(func(db []byte) []byte { return db[:len(db)-1] })},
		{"database bit-flipped", envelope(func(db []byte) []byte {
			db[len(db)/2] ^= 0x10
			return db
		})},
		{"database header bit-flipped", envelope(func(db []byte) []byte {
			db[3] ^= 0x01
			return db
		})},
		{"no database", envelope(func([]byte) []byte { return []byte{} })},
		{"non-database payload", envelope(func([]byte) []byte { return []byte(texts[0]) })},
		{"v1 database payload", envelope(func(db []byte) []byte {
			r, err := store.OpenBytes(db)
			if err != nil {
				t.Fatal(err)
			}
			one, err := r.Database()
			if err != nil {
				t.Fatal(err)
			}
			return mustEncode(t, one)
		})},
		{"two-document payload", envelope(func([]byte) []byte {
			two, _, err := Build(nil, texts[:2], Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := store.EncodeV2(two, store.V2Options{})
			if err != nil {
				t.Fatal(err)
			}
			return b
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := New(Options{Cache: corruptingCache{cache, tc.corrupt}})
			got, err := in.Apply(texts)
			if err != nil {
				t.Fatalf("Apply over corrupt artifacts: %v", err)
			}
			if hits, misses := in.cacheHits.Value(), in.cacheMisses.Value(); hits != 0 || misses != int64(len(texts)) {
				t.Fatalf("%d hits, %d misses; want 0 and %d", hits, misses, len(texts))
			}
			if !bytes.Equal(mustEncode(t, got.DB), want) {
				t.Fatal("re-parsed batch converged to a different database")
			}
		})
	}
}

// corruptingCache serves every stored artifact through corrupt.
type corruptingCache struct {
	pipeline.Cache
	corrupt func(raw []byte) []byte
}

func (c corruptingCache) Get(key string) ([]byte, pipeline.Meta, bool) {
	raw, meta, ok := c.Cache.Get(key)
	if !ok {
		return nil, meta, false
	}
	return c.corrupt(bytes.Clone(raw)), meta, true
}

// docV1 and docV2 are the two store encodings of a one-document
// database.
func docV1(t testing.TB, d *domain.Document) []byte { return mustEncode(t, oneDoc(t, d)) }

func docV2(t testing.TB, d *domain.Document) []byte {
	b, err := store.EncodeV2(oneDoc(t, d), store.V2Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func oneDoc(t testing.TB, d *domain.Document) *domain.Database {
	t.Helper()
	db := domain.NewDatabase(domain.BaseScheme())
	if err := db.Add(d); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestApplyRejectsBadBatch pins batch atomicity: a batch containing an
// unparseable text leaves the snapshot untouched.
func TestApplyRejectsBadBatch(t *testing.T) {
	texts := seedTexts(t, 5)
	in := New(Options{})
	if _, err := in.Apply(texts[:1]); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	db0, ix0 := in.Snapshot()
	if _, err := in.Apply([]string{texts[1], "not a specification update\n"}); err == nil {
		t.Fatalf("Apply accepted an unparseable document")
	}
	if db, ix := in.Snapshot(); db != db0 || ix != ix0 {
		t.Fatalf("failed batch replaced the snapshot")
	}
}

// firstDiff renders the first differing line of two debug dumps.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("dumps differ in length: got %d lines, want %d", len(g), len(w))
}

// TestTitleMemoTracksUnion pins the fresh-title table across many
// revisions of one document: after every Apply it holds exactly the
// distinct normalized Intel titles of the current union that no frozen
// cluster claims (titles revised away are dropped), each counting the
// entries that carry it and labelling them, and a revised title that
// only normalizes onto a frozen cluster's title still takes that
// cluster's key.
func TestTitleMemoTracksUnion(t *testing.T) {
	texts := seedTexts(t, 1)
	initialDB, _, err := Build(nil, texts, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	intel := initialDB.VendorDocuments(domain.Intel)
	if len(intel) < 2 {
		t.Fatalf("corpus has %d Intel documents, need >= 2", len(intel))
	}
	victim, donor := intel[0], intel[1]
	frozen := donor.Errata[0]
	// Each variant differs from the frozen title as text but normalizes
	// onto it.
	variants := []func(string) string{
		strings.ToUpper,
		func(s string) string { return strings.ToLower(s) + "." },
		func(s string) string { return strings.ReplaceAll(s, " ", " - ") },
		func(s string) string { return s + "!" },
		func(s string) string { return "(" + s + ")" },
	}

	in := NewFrom(initialDB, Options{Parallelism: 1})
	var last *Result
	var text string
	for i := 0; i < 50; i++ {
		title := fmt.Sprintf("Revision %d changes the title of erratum %s", i, victim.Errata[0].ID)
		toFrozen := i%10 == 9
		if toFrozen {
			title = variants[i/10](frozen.Title)
		}
		rev := *victim
		rev.Errata = append([]*domain.Erratum(nil), victim.Errata...)
		e := victim.Errata[0].Clone()
		e.Title = title
		rev.Errata[0] = e
		text = specdoc.Write(&rev, specdoc.WriteOptions{})
		if last, err = in.Apply([]string{text}); err != nil {
			t.Fatalf("revision %d: Apply: %v", i, err)
		}
		got := last.DB.Docs[victim.Key].Errata[0]
		if got.Title != title {
			t.Fatalf("revision %d: parsed title %q, want %q", i, got.Title, title)
		}
		if toFrozen && got.Key != frozen.Key {
			t.Fatalf("revision %d: title %q took key %q, want the frozen cluster's %q", i, title, got.Key, frozen.Key)
		}
		if !toFrozen && got.Key == frozen.Key {
			t.Fatalf("revision %d: fresh title %q joined the frozen cluster %q", i, title, frozen.Key)
		}

		refs := make(map[string]int)
		for _, e := range last.DB.VendorErrata(domain.Intel) {
			n := textsim.Normalize(e.Title)
			if _, ok := in.frozenKey[n]; ok {
				continue
			}
			refs[n]++
			if row := in.fresh[n]; row != nil && e.Key != row.label {
				t.Fatalf("revision %d: entry %s has key %q, its title's label is %q", i, e.FullID(), e.Key, row.label)
			}
		}
		if len(in.fresh) != len(refs) {
			t.Fatalf("revision %d: table holds %d titles, union has %d distinct fresh Intel titles", i, len(in.fresh), len(refs))
		}
		for n, row := range in.fresh {
			if row.refs != refs[n] {
				t.Fatalf("revision %d: table counts %d entries for %q, union has %d", i, row.refs, n, refs[n])
			}
		}
	}

	wantDB, _, err := Build(initialDB, []string{text}, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("Build(union): %v", err)
	}
	if got, want := mustEncode(t, last.DB), mustEncode(t, wantDB); !bytes.Equal(got, want) {
		t.Fatalf("after 50 revisions the database differs from a cold Build over the union")
	}
}
