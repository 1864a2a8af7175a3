package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/specdoc"
	"repro/internal/textsim"
	"repro/pkg/domain"
)

// naiveKeys is the key oracle for a database ingested from an empty
// ingester (no frozen clusters). It labels the union from scratch,
// sharing nothing with the ingester's fresh-title table: the Intel
// entries are grouped by normalized title, and each title's key is "I-"
// plus the shortest prefix, at least 8 hex digits, of its sha256 that no
// other title's sha256 starts with. AMD entries key by "A-<ID>" and
// every other entry is keyless.
func naiveKeys(db *domain.Database) map[*domain.Erratum]string {
	sumOf := make(map[string]string)
	for _, e := range db.VendorErrata(domain.Intel) {
		n := textsim.Normalize(e.Title)
		sum := sha256.Sum256([]byte(n))
		sumOf[n] = hex.EncodeToString(sum[:])
	}
	sums := make([]string, 0, len(sumOf))
	for _, s := range sumOf {
		sums = append(sums, s)
	}
	sort.Strings(sums)
	// In sorted order the longest prefix a sum shares with any other
	// sum is the one it shares with a neighbour.
	common := func(a, b string) int {
		i := 0
		for i < len(a) && a[i] == b[i] {
			i++
		}
		return i
	}
	labelOf := make(map[string]string, len(sums))
	for i, s := range sums {
		k := 8
		if i > 0 {
			k = max(k, common(s, sums[i-1])+1)
		}
		if i+1 < len(sums) {
			k = max(k, common(s, sums[i+1])+1)
		}
		labelOf[s] = "I-" + s[:k]
	}
	keys := make(map[*domain.Erratum]string)
	for _, d := range db.Docs {
		for _, e := range d.Errata {
			switch {
			case d.Vendor == domain.AMD && e.ID != "":
				keys[e] = "A-" + e.ID
			case d.Vendor == domain.Intel:
				keys[e] = labelOf[sumOf[textsim.Normalize(e.Title)]]
			default:
				keys[e] = ""
			}
		}
	}
	return keys
}

// keyTitles maps every Intel key of db to the normalized title it names,
// failing if one key names two titles.
func keyTitles(t testing.TB, db *domain.Database) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, e := range db.VendorErrata(domain.Intel) {
		n := textsim.Normalize(e.Title)
		if prev, ok := out[e.Key]; ok && prev != n {
			t.Fatalf("key %s names two titles: %q and %q", e.Key, prev, n)
		}
		out[e.Key] = n
	}
	return out
}

// TestKeysStableAcrossRevisions pins that a key never starts to name a
// different title: a database built from corpus seed 1 takes the seed-2
// revisions of four Intel documents, one per Apply, and no key present
// in two consecutive generations may name a different normalized title
// in the second. (Rank-numbered fresh keys renamed 0, 49, 149 and 257
// keys over these four revisions.)
func TestKeysStableAcrossRevisions(t *testing.T) {
	initialDB, _, err := Build(nil, seedTexts(t, 1), Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	revisions := seedTexts(t, 2)
	in := NewFrom(initialDB, Options{Parallelism: 4})
	prev := keyTitles(t, initialDB)
	for _, i := range []int{27, 20, 16, 13} {
		res, err := in.Apply([]string{revisions[i]})
		if err != nil {
			t.Fatalf("revision %d: Apply: %v", i, err)
		}
		if !res.Changed || res.Replaced != 1 {
			t.Fatalf("revision %d: Changed=%v Replaced=%d, want a replaced document", i, res.Changed, res.Replaced)
		}
		cur := keyTitles(t, res.DB)
		changed := 0
		for k, n := range cur {
			if p, ok := prev[k]; ok && p != n {
				changed++
			}
		}
		if changed != 0 {
			t.Errorf("revision %d: %d keys name a different title than in the previous generation", i, changed)
		}
		if res.Relabeled != 0 {
			t.Errorf("revision %d: Relabeled = %d, want 0", i, res.Relabeled)
		}
		prev = cur
	}
}

// Two normalized titles whose sha256 share the 8-digit label prefix
// 3aa5f7d7: the 9th digit is 6 for probeA and b for probeB.
const (
	probeA = "prefix collision probe 7752"
	probeB = "prefix collision probe 73289"
)

// retitled renders d with its first erratum's title replaced.
func retitled(d *domain.Document, title string) string {
	rev := *d
	rev.Errata = append([]*domain.Erratum(nil), d.Errata...)
	e := d.Errata[0].Clone()
	e.Title = title
	rev.Errata[0] = e
	return specdoc.Write(&rev, specdoc.WriteOptions{})
}

// TestFreshLabelPrefixCollision drives the label-widening path with a
// real sha256 prefix collision: two colliding titles in the union both
// take 9-digit labels, the incumbent's entry is cloned with its wider
// label, either one leaving shrinks the other back to 8 digits, every
// arrival order converges to Build, and a prefix that equals a frozen
// key widens too.
func TestFreshLabelPrefixCollision(t *testing.T) {
	sumA, sumB := sha256hex([]byte(probeA)), sha256hex([]byte(probeB))
	if sumA[:8] != "3aa5f7d7" || sumB[:8] != "3aa5f7d7" || sumA[8] != '6' || sumB[8] != 'b' {
		t.Fatalf("probe sums %s / %s do not collide on 3aa5f7d7 with 9th digits 6 / b", sumA[:9], sumB[:9])
	}
	for _, p := range []string{probeA, probeB} {
		if textsim.Normalize(p) != p {
			t.Fatalf("probe %q is not normalized", p)
		}
	}
	const (
		short = "I-3aa5f7d7"
		wideA = "I-3aa5f7d76"
		wideB = "I-3aa5f7d7b"
	)

	texts := seedTexts(t, 1)
	base, _, err := Build(nil, texts, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	intel := base.VendorDocuments(domain.Intel)
	docA, docB := intel[0], intel[1]
	textA, textB := retitled(docA, probeA), retitled(docB, probeB)
	origA, origB := specdoc.Write(docA, specdoc.WriteOptions{}), specdoc.Write(docB, specdoc.WriteOptions{})
	keyOf := func(db *domain.Database, d *domain.Document) *domain.Erratum { return db.Docs[d.Key].Errata[0] }

	apply := func(in *Ingester, batch ...string) *Result {
		t.Helper()
		res, err := in.Apply(batch)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		return res
	}
	converges := func(what string, got *domain.Database, arrived []string) {
		t.Helper()
		want, _, err := Build(nil, append(append([]string(nil), texts...), arrived...), Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("%s: Build: %v", what, err)
		}
		if !bytes.Equal(mustEncode(t, got), mustEncode(t, want)) {
			t.Fatalf("%s: database differs from a cold Build over the union", what)
		}
	}

	// The incumbent widens when its collider arrives, and shrinks back
	// when either title leaves.
	for _, leave := range []string{"A", "B"} {
		in := New(Options{Parallelism: 4})
		apply(in, texts...)
		res := apply(in, textA)
		if got := keyOf(res.DB, docA).Key; got != short {
			t.Fatalf("alone, %q took %q, want %q", probeA, got, short)
		}
		before := res.DB
		res = apply(in, textB)
		a, b := keyOf(res.DB, docA), keyOf(res.DB, docB)
		if a.Key != wideA || b.Key != wideB {
			t.Fatalf("colliding: keys %q / %q, want %q / %q", a.Key, b.Key, wideA, wideB)
		}
		if res.Relabeled != 1 {
			t.Fatalf("colliding: Relabeled = %d, want 1 (the incumbent's entry)", res.Relabeled)
		}
		if old := keyOf(before, docA); old == a || old.Key != short {
			t.Fatalf("the incumbent was relabelled in place, not cloned")
		}
		arrived := []string{textA, textB}
		stay, other := docB, origA
		if leave == "B" {
			stay, other = docA, origB
		}
		res = apply(in, other)
		if got := keyOf(res.DB, stay).Key; got != short {
			t.Fatalf("after %s left, the other title keeps %q, want %q", leave, got, short)
		}
		if res.Relabeled != 1 {
			t.Fatalf("after %s left: Relabeled = %d, want 1", leave, res.Relabeled)
		}
		converges("after "+leave+" left", res.DB, append(arrived, other))
	}

	// Every arrival order of the two colliders converges.
	for name, batches := range map[string][][]string{
		"A then B":  {{textA}, {textB}},
		"B then A":  {{textB}, {textA}},
		"one batch": {{textB, textA}},
		"B twice":   {{textB}, {textA, textB}},
	} {
		in := New(Options{Parallelism: 4})
		apply(in, texts...)
		var res *Result
		var arrived []string
		for _, batch := range batches {
			res = apply(in, batch...)
			arrived = append(arrived, batch...)
		}
		if a, b := keyOf(res.DB, docA).Key, keyOf(res.DB, docB).Key; a != wideA || b != wideB {
			t.Fatalf("%s: keys %q / %q, want %q / %q", name, a, b, wideA, wideB)
		}
		converges(name, res.DB, arrived)
	}

	// A fresh title whose 8-digit prefix is a frozen key widens.
	initial, _, err := Build(nil, texts, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	victim := initial.VendorDocuments(domain.Intel)[2].Errata[0].Key
	for _, e := range initial.VendorErrata(domain.Intel) {
		if e.Key == victim {
			e.Key = short
		}
	}
	in := NewFrom(initial, Options{Parallelism: 4})
	res := apply(in, textA)
	if got := keyOf(res.DB, docA).Key; got != wideA {
		t.Fatalf("next to the frozen key %q, %q took %q, want %q", short, probeA, got, wideA)
	}
	want, _, err := Build(initial, []string{textA}, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build(initial): %v", err)
	}
	if !bytes.Equal(mustEncode(t, res.DB), mustEncode(t, want)) {
		t.Fatalf("frozen collision: database differs from a cold Build over the union")
	}
}

// TestNewFromRekeysInconsistentInitialEntries covers an initial
// database whose keys disagree with the union rule: a keyless Intel
// entry, an Intel entry keyed apart from its title's frozen cluster, and
// an AMD entry with a key other than "A-<ID>". The first Apply re-keys
// each of them on a clone, leaves the initial database untouched, and
// converges to Build over the same initial database.
func TestNewFromRekeysInconsistentInitialEntries(t *testing.T) {
	initial, _, err := Build(nil, seedTexts(t, 1), Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	arriving := initial.VendorDocuments(domain.Intel)[0]
	byKey := make(map[string][]*domain.Erratum)
	for _, e := range initial.VendorErrata(domain.Intel) {
		if e.DocKey != arriving.Key {
			byKey[e.Key] = append(byKey[e.Key], e)
		}
	}
	var keyless, split *domain.Erratum
	var splitKey string
	for _, d := range initial.VendorDocuments(domain.Intel)[1:] {
		for _, e := range d.Errata {
			switch n := len(byKey[e.Key]); {
			case n == 1 && keyless == nil:
				keyless = e
			case n > 1 && split == nil && e != byKey[e.Key][0]:
				split, splitKey = e, e.Key
			}
		}
	}
	amd := initial.VendorDocuments(domain.AMD)[0].Errata[0]
	if keyless == nil || split == nil || amd.ID == "" {
		t.Fatalf("corpus lacks a single-entry cluster, a multi-entry cluster or an AMD ID")
	}
	want := map[*domain.Erratum]string{keyless: keyless.Key, split: splitKey, amd: "A-" + amd.ID}
	keyless.Key, split.Key, amd.Key = "", "I-split", "A-foreign"

	in := NewFrom(initial, Options{Parallelism: 4})
	text := retitled(arriving, probeA)
	res, err := in.Apply([]string{text})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Relabeled != len(want) {
		t.Errorf("Relabeled = %d, want %d", res.Relabeled, len(want))
	}
	for e, key := range want {
		var got *domain.Erratum
		for _, c := range res.DB.Docs[e.DocKey].Errata {
			if c.ID == e.ID {
				got = c
			}
		}
		if got == nil || got == e || got.Key != key {
			t.Errorf("%s: not re-keyed to %q on a clone", e.FullID(), key)
		}
	}
	if keyless.Key != "" || split.Key != "I-split" || amd.Key != "A-foreign" {
		t.Errorf("Apply mutated the initial database")
	}
	wantDB, _, err := Build(initial, []string{text}, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("Build(initial): %v", err)
	}
	if !bytes.Equal(mustEncode(t, res.DB), mustEncode(t, wantDB)) {
		t.Fatalf("database differs from a cold Build over the same initial database")
	}
}
