//go:build !race

// The race detector drops sync.Pool entries at random, so exact
// allocation counts hold only without it.

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
)

// TestErrataPageAllocs gates an uncached /v1/errata page by its limit,
// not by its matches. On the mapped seed-1 store with the cache off, a
// bare page, which every erratum matches, may allocate at most
// pageBytesSlack bytes per request more than a page whose title filter
// matches one erratum, at the same limit. A query evaluation that
// materializes every match, or a corpus-sized table per request, costs
// tens of kilobytes here and fails.
func TestErrataPageAllocs(t *testing.T) {
	const limit, pageBytesSlack = "25", 2048
	srv, _ := mappedIngestServer(t)
	one := oneMatchTitle(t, srv)
	bytesPerPage := func(target string, wantTotal int) uint64 {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.handleErrata(rec, httptest.NewRequest("GET", target, nil))
		var page struct{ Total int }
		if err := json.Unmarshal(rec.Body.Bytes(), &page); rec.Code != http.StatusOK || err != nil || page.Total != wantTotal {
			t.Fatalf("%s: status %d, total %d (%v), want 200 and total %d", target, rec.Code, page.Total, err, wantTotal)
		}
		req := httptest.NewRequest("GET", target, nil)
		w := &benchWriter{header: make(http.Header, 4)}
		srv.handleErrata(w, req) // warm the stitching buffer pool
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			srv.handleErrata(w, req)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	bare := bytesPerPage("/v1/errata?limit="+limit, srv.snap.Load().ix.UniqueCount())
	single := bytesPerPage("/v1/errata?limit="+limit+"&title="+url.QueryEscape(one), 1)
	t.Logf("bare page %d B/op, one-match page %d B/op", bare, single)
	if bare > single+pageBytesSlack {
		t.Errorf("bare page allocates %d B/op, one-match page %d B/op: want at most %d B more", bare, single, pageBytesSlack)
	}
}
