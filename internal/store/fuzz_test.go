package store

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/taxonomy"
	"repro/pkg/domain"
)

// fuzzSeedDB is a compact database covering every DTO field: both
// vendors, revisions, withdrawn rows, disclosure dates, annotations
// with concretes, MSRs and all boolean flags.
func fuzzSeedDB(tb testing.TB) *domain.Database {
	tb.Helper()
	db := domain.NewDatabase(taxonomy.Base())
	docs := []*domain.Document{
		{
			Key: "intel-01", Vendor: domain.Intel, Label: "1", Reference: "REF-1",
			Order: 0, GenIndex: 1,
			Released:  time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
			Withdrawn: []string{"GONE1"},
			Revisions: []domain.Revision{
				{Number: 1, Date: time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC), Added: []string{"AAA001"}},
				{Number: 2, Date: time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)},
			},
			Errata: []*domain.Erratum{
				{
					DocKey: "intel-01", ID: "AAA001", Seq: 1, Key: "k1",
					Title:       "Power state hang",
					Description: "The core hangs.", Implication: "System hang.",
					Workaround: "Disable C-states.", Status: "No fix",
					WorkaroundCat: domain.WorkaroundBIOS, Fix: domain.FixDone,
					AddedIn:   1,
					Disclosed: time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC),
					Ann: domain.Annotation{
						Triggers:          []domain.Item{{Category: "Trg_POW_pwc", Concrete: "C6 entry"}},
						Contexts:          []domain.Item{{Category: "Ctx_PRV_vmg"}},
						Effects:           []domain.Item{{Category: "Eff_HNG_hng"}},
						MSRs:              []string{"MCx_STATUS"},
						ComplexConditions: true, TrivialTrigger: true, SimulationOnly: true,
					},
				},
			},
		},
		{
			Key: "amd-10h-00", Vendor: domain.AMD, Label: "10h 00", Order: 0,
			Released: time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC),
			Errata: []*domain.Erratum{
				{DocKey: "amd-10h-00", ID: "100", Seq: 1, Title: "Fence issue"},
			},
		},
	}
	for _, d := range docs {
		if err := db.Add(d); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// FuzzDecode fuzzes the JSON decoder through the sniffing OpenBytes
// entry point. Properties:
//
//  1. OpenBytes never panics, whatever the bytes.
//  2. If OpenBytes accepts the bytes, the database re-encodes without
//     error, the re-encoding decodes, and a second encode of that is
//     byte-identical (deterministic canonical form).
func FuzzDecode(f *testing.F) {
	seed, err := Encode(fuzzSeedDB(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"documents":[]}`))
	f.Add([]byte(`{"version":2,"documents":[]}`))
	f.Add([]byte(`{"version":1,"documents":[{"key":"x","vendor":"Intel","released":"2010-01-01"}]}`))
	f.Add([]byte(`{"version":1,"documents":[{"key":"x","vendor":"VIA","released":"2010-01-01"}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return // rejected input; only panics are failures
		}
		db, err := r.Database()
		if err != nil {
			t.Fatalf("opened database failed to materialize: %v", err)
		}
		enc1, err := Encode(db)
		if err != nil {
			t.Fatalf("decoded database failed to encode: %v", err)
		}
		db2 := openDBBytes(t, enc1)
		enc2, err := Encode(db2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode not canonical: first %d bytes, second %d bytes", len(enc1), len(enc2))
		}
	})
}

// FuzzOpenV2 fuzzes the FormatVersion 2 binary decoder and the
// sniffing entry point. Properties:
//
//  1. OpenBytes never panics, whatever the bytes.
//  2. If OpenBytes accepts the bytes as a v2 store, materialization
//     succeeds and the database's canonical v1 encoding round-trips
//     byte-identically through another v2 encode/open/materialize
//     cycle.
func FuzzOpenV2(f *testing.F) {
	db := fuzzSeedDB(f)
	for _, opts := range []V2Options{
		{},
		{Postings: true},
		{Postings: true, Fragments: true},
	} {
		seed, err := EncodeV2(db, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		// A truncated and a bit-flipped variant steer the fuzzer at the
		// validation paths from the start.
		f.Add(seed[:len(seed)/2])
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(v2Magic))
	f.Add([]byte("REMBERR2\x02\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenBytes(data)
		if err != nil {
			return
		}
		sv, ok := r.(*StoreV2)
		if !ok {
			return // JSON the v1 decoder accepted; FuzzDecode covers it
		}
		db, err := sv.Database()
		if err != nil {
			t.Fatalf("opened store failed to materialize: %v", err)
		}
		enc1, err := Encode(db)
		if err != nil {
			t.Fatalf("materialized database failed to encode: %v", err)
		}
		reenc, err := EncodeV2(db, V2Options{Postings: true, Fragments: true})
		if err != nil {
			t.Fatalf("materialized database failed to v2-encode: %v", err)
		}
		sv2, err := openStoreV2(reenc)
		if err != nil {
			t.Fatalf("v2 re-encoding rejected: %v", err)
		}
		db2, err := sv2.Database()
		if err != nil {
			t.Fatalf("second materialize failed: %v", err)
		}
		enc2, err := Encode(db2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("v2 cycle not canonical: first %d bytes, second %d bytes", len(enc1), len(enc2))
		}
	})
}
