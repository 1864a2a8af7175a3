package serve

import (
	"bytes"
	"net/url"
	"testing"

	"repro/internal/store"
)

// TestFormatEquivalence is the cross-format serving contract: a server
// loaded from a FormatVersion 2 file (zero-decode store, persisted
// postings, precomputed fragments) answers every /v1 response
// byte-identically to a server loaded from the FormatVersion 1 JSON of
// the same corpus, across the six equivalence-matrix seeds. Caching is
// disabled so every request exercises the full path.
func TestFormatEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		db := datedCorpus(t, seed)
		v1Bytes, err := store.Encode(db)
		if err != nil {
			t.Fatal(err)
		}
		v2Bytes, err := store.EncodeV2(db, store.V2Options{Postings: true, Fragments: true})
		if err != nil {
			t.Fatal(err)
		}

		v1Reader, err := store.OpenBytes(v1Bytes)
		if err != nil {
			t.Fatal(err)
		}
		v1DB, err := v1Reader.Database()
		if err != nil {
			t.Fatal(err)
		}
		reference := newDBServer(v1DB, Options{CacheSize: -1}).Handler()

		sv, err := store.OpenBytes(v2Bytes)
		if err != nil {
			t.Fatal(err)
		}
		v2Srv, err := New(WithStore(sv), Options{CacheSize: -1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v2 := v2Srv.Handler()

		urls := []string{"/v1/stats"}
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

		for _, u := range urls {
			wantCode, want := get(t, reference, u)
			gotCode, got := get(t, v2, u)
			if gotCode != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s: v2 %d %q != v1 %d %q",
					seed, u, gotCode, truncate(got), wantCode, truncate(want))
			}
		}
	}
}
