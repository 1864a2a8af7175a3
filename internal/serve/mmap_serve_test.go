package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
)

// openMapped opens path through store.Open's default (mmap) path and
// skips the test on platforms without a mapping to exercise.
func openMapped(t testing.TB, path string) *store.StoreV2 {
	t.Helper()
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mapped() {
		r.Close()
		t.Skip("mmap unsupported on this platform")
	}
	return r.(*store.StoreV2)
}

// TestMmapEquivalence is the mmap serving contract: a server whose
// snapshot reads straight off the file mapping answers every /v1
// response byte-identically to one reading the same file through
// ReadFile, across the six equivalence-matrix seeds.
func TestMmapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		db := datedCorpus(t, seed)
		path := filepath.Join(t.TempDir(), "db.v2")
		if err := store.SaveFormat(db, path, "v2"); err != nil {
			t.Fatal(err)
		}

		urls := []string{"/v1/stats", "/healthz"}
		for _, q := range serveFilterMatrix {
			u := "/v1/errata"
			if q != "" {
				u += "?" + q
			}
			urls = append(urls, u)
		}
		urls = append(urls, "/v1/errata/no-such-key")
		for _, key := range sampleKeys(db, 16) {
			urls = append(urls, "/v1/errata/"+url.PathEscape(key))
		}

		heapReader, err := store.Open(path, store.WithMmap(false))
		if err != nil {
			t.Fatal(err)
		}
		heapSrv, err := New(WithStore(heapReader), Options{CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		heapReader.Close()

		mapped := openMapped(t, path)
		mmapSrv, err := New(WithStore(mapped), Options{CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		mapped.Close()

		want, got := heapSrv.Handler(), mmapSrv.Handler()
		for _, u := range urls {
			wantCode, wantBody := get(t, want, u)
			gotCode, gotBody := get(t, got, u)
			if gotCode != wantCode || !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("seed %d %s: mmap %d %q != heap %d %q",
					seed, u, gotCode, truncate(gotBody), wantCode, truncate(wantBody))
			}
		}
	}
}

// TestMmapSwapUnderLoad swaps mmap-backed snapshots while readers
// hammer the hot endpoints. Displacing a snapshot releases its region
// and the last release unmaps, so any request still reading the old
// mapping after its release would fault — the refcount (retained per
// request by acquireSnap) is what this test proves, under -race in CI.
// Afterwards every displaced region must be unmapped and only the
// serving one alive.
func TestMmapSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 2)
	keys := make([]string, 2)
	for i, seed := range []int64{1, 2} {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, "db"+strconv.Itoa(i)+".v2")
		if err := store.SaveFormat(gt.DB, paths[i], "v2"); err != nil {
			t.Fatal(err)
		}
		keys[i] = gt.DB.Unique()[0].Key
	}

	first := openMapped(t, paths[0])
	srv, err := New(WithStore(first), Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	regions := []*store.Region{first.Region()}
	first.Close()

	h := srv.Handler()
	urls := []string{
		"/v1/errata?vendor=Intel&unique=false",
		"/v1/errata/" + keys[0],
		"/v1/errata/" + keys[1],
		"/v1/stats",
		"/healthz",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, u := range urls {
					req := httptest.NewRequest("GET", u, nil)
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					// Point lookups 404 on the corpus not currently
					// served; anything else means a torn snapshot.
					if w.Code != 200 && w.Code != 404 {
						t.Errorf("%s: status %d: %s", u, w.Code, w.Body.String())
						return
					}
					if w.Code == 200 && w.Body.Len() == 0 {
						t.Errorf("%s: empty 200 body", u)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < 24; i++ {
		r := openMapped(t, paths[(i+1)%2])
		if _, err := srv.SwapReader(r); err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r.Region())
		r.Close()
	}
	close(stop)
	wg.Wait()

	for i, reg := range regions[:len(regions)-1] {
		if reg.Active() {
			t.Errorf("displaced region %d still active (leaked mapping)", i)
		}
	}
	if last := regions[len(regions)-1]; !last.Active() {
		t.Error("serving snapshot's region was released")
	}
}

// TestSwapDeltaInheritsRegion pins the mapped snapshot lifecycle: a
// delta snapshot shares entries (and so mapped strings) with its
// predecessor, so it must retain the predecessor's region. A reload
// that reopens a mapped v2 store the way errserve's does (store.Open,
// SwapReader, Close) unmaps the displaced region and answers
// byte-identically to a heap server over the new file, and a later
// full Swap to a heap database unmaps the reloaded region.
func TestSwapDeltaInheritsRegion(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 2)
	for i, seed := range []int64{1, 2} {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, "db"+strconv.Itoa(i)+".v2")
		if err := store.SaveFormat(gt.DB, paths[i], "v2"); err != nil {
			t.Fatal(err)
		}
	}
	sv := openMapped(t, paths[0])
	var srv *Server
	var reloaded *store.Region
	srv, err := New(WithStore(sv), Options{CacheSize: -1, Reloader: func(context.Context) (uint64, error) {
		r := openMapped(t, paths[1])
		gen, err := srv.SwapReader(r)
		reloaded = r.Region()
		r.Close()
		return gen, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	region := sv.Region()
	sv.Close()

	// An unchanged corpus is a valid delta (every entry shared).
	srv.SwapDelta(srv.snap.Load().db)
	if !region.Active() {
		t.Fatal("delta swap released the region its entries alias")
	}

	gen, err := srv.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if region.Active() {
		t.Error("region still active after a reload displaced every snapshot holding it")
	}
	if !reloaded.Active() {
		t.Fatal("reload released the region it serves from")
	}
	heapReader, err := store.Open(paths[1], store.WithMmap(false))
	if err != nil {
		t.Fatal(err)
	}
	heapSrv, err := New(WithStore(heapReader), Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	heapReader.Close()
	db := srv.snap.Load().db
	urls := []string{"/v1/stats", "/healthz", "/v1/errata?unique=false&limit=1000"}
	for _, key := range sampleKeys(db, 16) {
		urls = append(urls, "/v1/errata/"+url.PathEscape(key))
	}
	genField := []byte(`"generation":` + strconv.FormatUint(gen, 10))
	want, got := heapSrv.Handler(), srv.Handler()
	for _, u := range urls {
		wantCode, wantBody := get(t, want, u)
		gotCode, gotBody := get(t, got, u)
		wantBody = bytes.Replace(wantBody, []byte(`"generation":1`), genField, 1)
		if gotCode != wantCode || !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("reloaded %s: mmap %d %q != heap %d %q", u, gotCode, truncate(gotBody), wantCode, truncate(wantBody))
		}
	}

	gt2, err := corpus.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Swap(gt2.DB)
	if reloaded.Active() {
		t.Error("reloaded region still active after a full swap to a heap database")
	}
}

// TestStoreBootDecodesOnce pins the boot cost of a store-backed server:
// serving a FormatVersion 2 store decodes each erratum record exactly
// once, and the served snapshot holds every entry.
func TestStoreBootDecodesOnce(t *testing.T) {
	gt, err := corpus.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := store.EncodeV2(gt.DB, store.V2Options{Postings: true, Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	sv := r.(*store.StoreV2)
	srv, err := New(WithStore(sv), Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(gt.DB.Errata()))
	if got := sv.DecodeCount(); got != n {
		t.Errorf("boot decoded %d records, want exactly %d", got, n)
	}
	if got := srv.snap.Load().ix.Size(); got != int(n) {
		t.Errorf("snapshot serves %d entries, want %d", got, n)
	}
}
