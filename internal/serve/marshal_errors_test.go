package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// TestMarshalFailuresAre500s is the regression test for the former
// `body, _ := json.Marshal(...)` sites: when a response cannot be
// encoded, every handler must answer the static 500 marshal-error body
// — not a silently empty 200 — and the failure must land in the
// per-endpoint error counter. The errata handlers never marshal; for
// them the failure is an entry without fragments.
func TestMarshalFailuresAre500s(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var srv *Server
	srv = newDBServer(gt.DB, Options{
		CacheSize: -1,
		Reloader: func(context.Context) (uint64, error) {
			g, err := corpus.Generate(1)
			if err != nil {
				return 0, err
			}
			return srv.Swap(g.DB), nil
		},
		Ingest: func(context.Context, string) (IngestSummary, error) {
			return IngestSummary{}, nil
		},
	})
	h := srv.Handler()
	key := gt.DB.Unique()[0].Key

	// An empty fragment set lacks every entry of the snapshot, as if
	// each entry's DTO had failed to marshal at swap time.
	empty, err := store.BuildFragments(domain.NewDatabase(taxonomy.Base()))
	if err != nil {
		t.Fatal(err)
	}
	snap := *srv.snap.Load()
	snap.frags = empty
	srv.snap.Store(&snap)

	prev := marshalJSON
	marshalJSON = func(any) ([]byte, error) { return nil, errors.New("forced marshal failure") }
	defer func() { marshalJSON = prev }()

	const wantBody = `{"error":"response encoding failed"}`
	cases := []struct {
		endpoint string
		method   string
		url      string
		body     string
	}{
		{"errata", "GET", "/v1/errata", ""},
		{"erratum", "GET", "/v1/errata/" + key, ""},
		{"stats", "GET", "/v1/stats", ""},
		{"healthz", "GET", "/healthz", ""},
		{"metrics_json", "GET", "/v1/metrics.json", ""},
		{"admin_reload", "POST", "/v1/admin/reload", ""},
		{"admin_ingest", "POST", "/v1/admin/ingest", "ERRATA DOCUMENT\nEND OF DOCUMENT\n"},
	}
	for _, tc := range cases {
		before := srv.endpoints[tc.endpoint].errors.Value()
		rec := httptest.NewRecorder()
		var body *strings.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		} else {
			body = strings.NewReader("")
		}
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.url, body))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s %s: status %d, want 500", tc.method, tc.url, rec.Code)
		}
		if got := strings.TrimSpace(rec.Body.String()); got != wantBody {
			t.Errorf("%s %s: body %q, want %q", tc.method, tc.url, got, wantBody)
		}
		if after := srv.endpoints[tc.endpoint].errors.Value(); after != before+1 {
			t.Errorf("%s: error counter %v -> %v, want +1", tc.endpoint, before, after)
		}
	}
}

// TestStitchedSurvivesMarshalFailure proves the hot path's independence
// from encoding/json: with fragments intact, point lookups and page
// queries still answer 200 while json.Marshal is broken.
func TestStitchedSurvivesMarshalFailure(t *testing.T) {
	gt, err := corpus.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := newDBServer(gt.DB, Options{CacheSize: -1})
	h := srv.Handler()
	key := gt.DB.Unique()[0].Key

	prev := marshalJSON
	marshalJSON = func(any) ([]byte, error) { return nil, errors.New("forced marshal failure") }
	defer func() { marshalJSON = prev }()

	for _, url := range []string{"/v1/errata/" + key, "/v1/errata?limit=5"} {
		if code, body := get(t, h, url); code != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: %d %q while marshal broken; stitched path should not need json.Marshal", url, code, body)
		}
	}
}
