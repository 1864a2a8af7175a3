package domain_test

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/pkg/domain"
)

// assignedOrders returns the Order indices AssignOrders writes into a
// copy of docs, leaving docs untouched.
func assignedOrders(docs map[string]*domain.Document) map[string]int {
	db := &domain.Database{Docs: make(map[string]*domain.Document, len(docs))}
	for k, d := range docs {
		dc := *d
		db.Docs[k] = &dc
	}
	domain.AssignOrders(db)
	out := make(map[string]int, len(db.Docs))
	for k, d := range db.Docs {
		out[k] = d.Order
	}
	return out
}

// checkOrdersPure fails unless every document of docs still carries
// the Order recorded in stale.
func checkOrdersPure(t *testing.T, docs map[string]*domain.Document, stale map[string]int) {
	t.Helper()
	for k, d := range docs {
		if d.Order != stale[k] {
			t.Errorf("Orders wrote %s.Order: %d, was %d", k, d.Order, stale[k])
		}
	}
}

// TestOrdersTieBreaks pins each step of the (GenIndex, Released, Key)
// sort on a hand-built database whose Order indices are stale.
func TestOrdersTieBreaks(t *testing.T) {
	jan, jun := date(2015, 1, 1), date(2015, 6, 1)
	docs := make(map[string]*domain.Document)
	stale := make(map[string]int)
	for i, d := range []*domain.Document{
		// GenIndex decides ahead of a later date and key.
		{Key: "intel-z", Vendor: domain.Intel, GenIndex: 1, Released: jun},
		// Same GenIndex: the earlier release comes first.
		{Key: "intel-b", Vendor: domain.Intel, GenIndex: 2, Released: jan},
		{Key: "intel-a", Vendor: domain.Intel, GenIndex: 2, Released: jun},
		// Same GenIndex and release: the key decides.
		{Key: "intel-d", Vendor: domain.Intel, GenIndex: 3, Released: jan},
		{Key: "intel-c", Vendor: domain.Intel, GenIndex: 3, Released: jan},
		// AMD documents all sit at GenIndex 0, ordered per vendor.
		{Key: "amd-2", Vendor: domain.AMD, Released: jan},
		{Key: "amd-1", Vendor: domain.AMD, Released: jun},
		{Key: "amd-0", Vendor: domain.AMD, Released: jun},
	} {
		d.Order = 100 - i
		docs[d.Key] = d
		stale[d.Key] = d.Order
	}
	want := map[string]int{
		"intel-z": 0, "intel-b": 1, "intel-a": 2, "intel-c": 3, "intel-d": 4,
		"amd-2": 0, "amd-0": 1, "amd-1": 2,
	}
	if got := domain.Orders(docs); !reflect.DeepEqual(got, want) {
		t.Errorf("Orders = %v, want %v", got, want)
	}
	checkOrdersPure(t, docs, stale)
	if got := assignedOrders(docs); !reflect.DeepEqual(got, want) {
		t.Errorf("AssignOrders = %v, want %v", got, want)
	}
}

// TestOrdersMatchesAssignOrders holds Orders to AssignOrders over the
// seed 1-3 ground truths, with every Order made stale first.
func TestOrdersMatchesAssignOrders(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		gt, err := corpus.Generate(seed)
		if err != nil {
			t.Fatalf("corpus.Generate(%d): %v", seed, err)
		}
		want := assignedOrders(gt.DB.Docs)
		stale := make(map[string]int, len(gt.DB.Docs))
		for k, d := range gt.DB.Docs {
			d.Order = -1 - want[k]
			stale[k] = d.Order
		}
		if got := domain.Orders(gt.DB.Docs); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Orders = %v, want %v", seed, got, want)
		}
		checkOrdersPure(t, gt.DB.Docs, stale)
	}
}
