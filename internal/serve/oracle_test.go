package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/queryref"
	"repro/internal/store"
	"repro/pkg/domain"
)

// serveFilterMatrix is the /v1/errata query vocabulary of the
// equivalence suites: every filter parameter at least once, compound
// filters, and the pagination edges.
var serveFilterMatrix = []string{
	"",
	"vendor=Intel",
	"vendor=AMD",
	"doc=intel-06",
	"category=Trg_POW_pwc",
	"category=Eff_HNG_hng",
	"category=Trg_XXX_xxx", // unknown: zero matches
	"category=Eff_HNG_hng&category=Trg_POW_pwc",
	"any_category=Eff_HNG_hng,Eff_HNG_crh",
	"class=Trg_POW",
	"class=Eff_HNG",
	"trigger=Trg_POW_pwc&trigger=Trg_MOP_fen",
	"min_triggers=2",
	"workaround=BIOS",
	"fix=NoFixPlanned",
	"complex=true",
	"sim_only=true",
	"title=the",
	"msr=MCx_STATUS",
	"unique=false",
	"unique=false&limit=1000",
	"vendor=Intel&category=Eff_HNG_hng",
	"vendor=AMD&class=Trg_POW&min_triggers=1",
	"vendor=Intel&class=Trg_POW&min_triggers=1&limit=7&offset=3",
	"limit=0",
	"limit=1000",
	"offset=50&limit=25",
	"offset=999999", // past the total
	"disclosed_from=2010-01-01&disclosed_to=2016-01-01",
	"disclosed_from=2016-01-01&disclosed_to=2010-01-01", // inverted: empty
	"disclosed_to=2012-06-30",
	"min_triggers=0", // constrains nothing
	"title=",         // constrains nothing
	"any_category=Eff_HNG_hng&any_category=Eff_HNG_crh,Trg_POW_pwc",
	"category=Eff_HNG_hng,Trg_POW_pwc", // one value with a comma: no such category
	"vendor=%20intel%20&workaround=docfix&fix=fixed",
}

// serveInvalidMatrix lists /v1/errata query strings that must answer
// 400: unknown parameters, malformed values, repeated single-valued
// parameters and query strings that do not decode.
var serveInvalidMatrix = []string{
	"nope=1",
	"vendor=VIA",
	"vendor=Intel&vendor=AMD",
	"min_triggers=many",
	"min_triggers=-1",
	"limit=-1",
	"offset=x",
	"unique=maybe",
	"complex=",
	"workaround=magic",
	"fix=eventually",
	"disclosed_from=yesterday",
	"disclosed_from=2010-02-30",
	"disclosed_from=%2B2010-01-01",
	"title=a&title=b",
	"vendor=Intel;limit=5", // ';' is not a separator
	"doc=%zz",              // bad escape
}

// get issues one request straight through a server's handler chain and
// returns status and body.
func get(t testing.TB, h http.Handler, url string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Code, rec.Body.Bytes()
}

// getErrata issues GET /v1/errata with rawQuery taken verbatim, so
// query strings httptest.NewRequest would refuse to parse still reach
// the handler.
func getErrata(h http.Handler, rawQuery string) (int, []byte) {
	req := httptest.NewRequest("GET", "/v1/errata", nil)
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func truncate(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// datedCorpus generates one corpus seed with deterministic disclosure
// dates, so the date-range filters bite.
func datedCorpus(t testing.TB, seed int64) *domain.Database {
	t.Helper()
	gt, err := corpus.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range gt.DB.Errata() {
		e.Disclosed = time.Date(2008+i%10, time.Month(1+i%12), 1+i%28, 0, 0, 0, 0, time.UTC)
	}
	return gt.DB
}

// sampleKeys returns n cluster keys spread evenly over db's unique
// entries.
func sampleKeys(db *domain.Database, n int) []string {
	uniq := db.Unique()
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, uniq[i*len(uniq)/n].Key)
	}
	return keys
}

// marshalOracle is the reference the stitched read path is held to. It
// answers a request the plain way: queryref parses the query string and
// scans the database, and the page is json.Marshal of the store DTOs,
// with no filter table, index, fragments or cache involved.
type marshalOracle struct {
	db *domain.Database
}

func newMarshalOracle(db *domain.Database) *marshalOracle {
	return &marshalOracle{db: db}
}

// errata returns the /v1/errata body for rawQuery at generation gen;
// ok is false when the query is invalid and must answer 400.
func (o *marshalOracle) errata(t testing.TB, rawQuery string, gen uint64) (body []byte, ok bool) {
	t.Helper()
	q, err := queryref.Parse(rawQuery)
	if err != nil {
		return nil, false
	}
	matches := q.Match(o.db, q.Unique)
	page := matches[min(q.Offset, len(matches)):]
	page = page[:min(q.Limit, len(page))]
	summaries := make([]store.ErratumSummary, 0, len(page))
	for _, e := range page {
		summaries = append(summaries, store.Summarize(o.db, e))
	}
	body, err = json.Marshal(struct {
		Total      int                    `json:"total"`
		Offset     int                    `json:"offset"`
		Count      int                    `json:"count"`
		Unique     bool                   `json:"unique"`
		Generation uint64                 `json:"generation"`
		Errata     []store.ErratumSummary `json:"errata"`
	}{len(matches), q.Offset, len(summaries), q.Unique, gen, summaries})
	if err != nil {
		t.Fatal(err)
	}
	return body, true
}

// erratum returns the /v1/errata/{key} body at generation gen; ok is
// false when no entry carries key and the lookup must answer 404.
func (o *marshalOracle) erratum(t testing.TB, key string, gen uint64) (body []byte, ok bool) {
	t.Helper()
	var occurrences []*domain.Erratum
	for _, e := range o.db.Errata() {
		if e.Key == key {
			occurrences = append(occurrences, e)
		}
	}
	if len(occurrences) == 0 {
		return nil, false
	}
	details := make([]store.ErratumDetail, 0, len(occurrences))
	for _, e := range occurrences {
		details = append(details, store.DetailOf(o.db, e))
	}
	body, err := json.Marshal(struct {
		Key         string                `json:"key"`
		Occurrences int                   `json:"occurrences"`
		Generation  uint64                `json:"generation"`
		Entries     []store.ErratumDetail `json:"entries"`
	}{key, len(details), gen, details})
	if err != nil {
		t.Fatal(err)
	}
	return body, true
}

// TestStitchedMatchesMarshal holds the stitched read path to the
// marshal oracle across the six corpus seeds: every filter-matrix page
// and every unique key's point lookup is byte-identical to json.Marshal
// of the DTOs for the page the reference scan answers, every invalid
// query is a 400, and an unknown key is a 404. Caching is disabled so every request runs the full path.
func TestStitchedMatchesMarshal(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		db := datedCorpus(t, seed)
		srv := newDBServer(db, Options{CacheSize: -1})
		h, gen := srv.Handler(), srv.Generation()
		oracle := newMarshalOracle(db)

		for _, q := range serveFilterMatrix {
			want, ok := oracle.errata(t, q, gen)
			if !ok {
				t.Fatalf("seed %d: matrix query %q is invalid", seed, q)
			}
			if code, got := getErrata(h, q); code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("seed %d ?%s: %d %q != oracle %q", seed, q, code, truncate(got), truncate(want))
			}
		}
		for _, q := range serveInvalidMatrix {
			if _, ok := oracle.errata(t, q, gen); ok {
				t.Fatalf("seed %d: oracle accepts invalid query %q", seed, q)
			}
			if code, got := getErrata(h, q); code != http.StatusBadRequest || !isErrorObject(got) {
				t.Fatalf("seed %d ?%s: %d %q, want a 400 error object", seed, q, code, truncate(got))
			}
		}
		for _, e := range db.Unique() {
			want, ok := oracle.erratum(t, e.Key, gen)
			if !ok {
				t.Fatalf("seed %d: oracle lost key %q", seed, e.Key)
			}
			if code, got := get(t, h, "/v1/errata/"+url.PathEscape(e.Key)); code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("seed %d key %q: %d %q != oracle %q", seed, e.Key, code, truncate(got), truncate(want))
			}
		}
		if code, _ := get(t, h, "/v1/errata/no-such-key"); code != http.StatusNotFound {
			t.Fatalf("seed %d: unknown key answered %d, want 404", seed, code)
		}
	}
}

// isErrorObject reports whether body is a JSON {"error": "..."} object.
func isErrorObject(body []byte) bool {
	var e map[string]any
	if err := json.Unmarshal(body, &e); err != nil || len(e) != 1 {
		return false
	}
	_, isString := e["error"].(string)
	return isString
}

// FuzzErrataQuery is the differential oracle for /v1/errata over
// arbitrary query strings. Every combination of source (v1 heap, v2
// heap, v2 mmap) and response cache (on, off) must answer with the same
// status and body; every 200 must equal the marshal oracle, and every
// 4xx must be a query the oracle rejects, answered with a JSON
// {"error": "..."} object.
func FuzzErrataQuery(f *testing.F) {
	for _, q := range append(serveFilterMatrix, serveInvalidMatrix...) {
		f.Add(q)
	}
	// Title substrings whose strings.ToLower changes byte length: the
	// Kelvin sign folds to ASCII k and İ to ASCII i.
	f.Add("title=LOC%E2%84%AA")
	f.Add("title=%C4%B0NVALID&vendor=Intel")
	db := datedCorpus(f, 1)
	v1, err := store.Encode(db)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "db.v2")
	if err := store.SaveFormat(db, path, "v2"); err != nil {
		f.Fatal(err)
	}
	openers := map[string]func() store.Reader{
		"v1-heap": func() store.Reader {
			r, err := store.OpenBytes(v1)
			if err != nil {
				f.Fatal(err)
			}
			return r
		},
		"v2-heap": func() store.Reader {
			r, err := store.Open(path, store.WithMmap(false))
			if err != nil {
				f.Fatal(err)
			}
			return r
		},
		"v2-mmap": func() store.Reader { return openMapped(f, path) },
	}
	var names []string
	var handlers []http.Handler
	for name, open := range openers {
		for _, cache := range []int{-1, 0} {
			r := open()
			srv, err := New(WithStore(r), Options{CacheSize: cache})
			if err != nil {
				f.Fatal(err)
			}
			r.Close()
			names = append(names, fmt.Sprintf("%s/cache=%d", name, cache))
			handlers = append(handlers, srv.Handler())
		}
	}
	oracle := newMarshalOracle(db)

	f.Fuzz(func(t *testing.T, rawQuery string) {
		code, body := getErrata(handlers[0], rawQuery)
		for i, h := range handlers[1:] {
			if c, b := getErrata(h, rawQuery); c != code || !bytes.Equal(b, body) {
				t.Fatalf("?%s: %s %d %q != %s %d %q", rawQuery, names[i+1], c, truncate(b), names[0], code, truncate(body))
			}
		}
		want, ok := oracle.errata(t, rawQuery, 1)
		switch {
		case code == http.StatusOK:
			if !ok || !bytes.Equal(body, want) {
				t.Fatalf("?%s: served %q, oracle (valid=%v) %q", rawQuery, truncate(body), ok, truncate(want))
			}
		case code >= 400 && code < 500:
			if ok {
				t.Fatalf("?%s: served %d for a query the oracle accepts", rawQuery, code)
			}
			if !isErrorObject(body) {
				t.Fatalf("?%s: %d body %q is not an error object", rawQuery, code, truncate(body))
			}
		default:
			t.Fatalf("?%s: unexpected status %d %q", rawQuery, code, truncate(body))
		}
	})
}
