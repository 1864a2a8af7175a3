package rememberr

import (
	"time"

	"repro/internal/index"
)

// Query is a fluent filter over the database's errata, the programmatic
// counterpart of the paper's "example custom script" for bootstrapping
// analyses on the released database. Filters compose conjunctively.
//
//	hangs := db.Query().Vendor(rememberr.Intel).
//	    WithCategory("Eff_HNG_hng").
//	    WithClass("Trg_POW").
//	    Unique()
//
// # Reuse contract
//
// A Query value is immutable: every filter method returns a new derived
// Query and leaves its receiver untouched, so a partially built query
// can be branched safely:
//
//	base := db.Query().Vendor(rememberr.Intel)
//	hangs := base.WithCategory("Eff_HNG_hng")   // base is unchanged
//	crashes := base.WithCategory("Eff_HNG_crh") // still two filters
//
// Terminal operations (All, Unique, Count, Keys) do not consume the
// query either; they can be repeated and interleaved with further
// filtering. Queries are not safe for concurrent mutation, but distinct
// queries over the same database may run concurrently.
//
// Every method stores one compile step onto the database's inverted
// index (internal/index); the first terminal operation on a database
// without an index builds it through BuildIndex.
type Query struct {
	db    *Database
	steps []func(*index.Query)
}

// Query starts a new query over all errata.
func (db *Database) Query() *Query {
	return &Query{db: db}
}

// with returns a new query extended by one compile step. Copy-on-extend
// is the guard behind the reuse contract above: the receiver's step
// slice is never appended to in place, so no two queries ever share a
// growing backing array.
func (q *Query) with(step func(iq *index.Query)) *Query {
	return &Query{db: q.db, steps: append(q.steps[:len(q.steps):len(q.steps)], step)}
}

// Vendor keeps errata of one vendor.
func (q *Query) Vendor(v Vendor) *Query {
	return q.with(func(iq *index.Query) { iq.Vendor(v) })
}

// InDocument keeps errata of one document.
func (q *Query) InDocument(key string) *Query {
	return q.with(func(iq *index.Query) { iq.InDocument(key) })
}

// WithCategory keeps errata annotated with the abstract category (any
// dimension).
func (q *Query) WithCategory(categoryID string) *Query {
	return q.with(func(iq *index.Query) { iq.WithCategory(categoryID) })
}

// AnyCategory keeps errata annotated with at least one of the given
// abstract categories — the disjunctive counterpart of chaining
// WithCategory calls, matching the paper's semantics for contexts and
// effects ("being in any of its contexts is sufficient").
func (q *Query) AnyCategory(categoryIDs ...string) *Query {
	ids := append([]string(nil), categoryIDs...)
	return q.with(func(iq *index.Query) { iq.AnyCategory(ids...) })
}

// WithClass keeps errata with at least one item of the given class.
func (q *Query) WithClass(classID string) *Query {
	return q.with(func(iq *index.Query) { iq.WithClass(classID) })
}

// WithAllTriggers keeps errata requiring at least all the given
// triggers (triggers are conjunctive).
func (q *Query) WithAllTriggers(categoryIDs ...string) *Query {
	ids := append([]string(nil), categoryIDs...)
	return q.with(func(iq *index.Query) { iq.WithAllTriggers(ids...) })
}

// MinTriggers keeps errata with at least n distinct trigger categories.
func (q *Query) MinTriggers(n int) *Query {
	return q.with(func(iq *index.Query) { iq.MinTriggers(n) })
}

// Workaround keeps errata with the given workaround category.
func (q *Query) Workaround(w WorkaroundCategory) *Query {
	return q.with(func(iq *index.Query) { iq.Workaround(w) })
}

// Fix keeps errata with the given fix status.
func (q *Query) Fix(f FixStatus) *Query {
	return q.with(func(iq *index.Query) { iq.Fix(f) })
}

// Complex keeps errata mentioning a complex set of conditions.
func (q *Query) Complex() *Query {
	return q.with(func(iq *index.Query) { iq.Complex() })
}

// SimulationOnly keeps errata whose bug has only been observed in
// simulation (the paper found five AMD and one Intel such erratum).
func (q *Query) SimulationOnly() *Query {
	return q.with(func(iq *index.Query) { iq.SimulationOnly() })
}

// DisclosedBetween keeps errata disclosed in [from, to).
func (q *Query) DisclosedBetween(from, to time.Time) *Query {
	return q.with(func(iq *index.Query) { iq.DisclosedBetween(from, to) })
}

// TitleContains keeps errata whose title contains the substring
// (case-insensitive).
func (q *Query) TitleContains(sub string) *Query {
	return q.with(func(iq *index.Query) { iq.TitleContains(sub) })
}

// ObservableIn keeps errata whose effects are observable in the given
// MSR.
func (q *Query) ObservableIn(msr string) *Query {
	return q.with(func(iq *index.Query) { iq.ObservableIn(msr) })
}

// compiled returns the query compiled onto the database's inverted
// index, building the index on first use.
func (q *Query) compiled() *index.Query {
	ix := q.db.Index()
	if ix == nil {
		ix = q.db.BuildIndex()
	}
	iq := ix.Query()
	for _, step := range q.steps {
		step(iq)
	}
	return iq
}

// All returns every matching entry (duplicates counted individually).
func (q *Query) All() []*Erratum { return q.compiled().All() }

// Unique returns one representative per matching deduplicated erratum.
func (q *Query) Unique() []*Erratum { return q.compiled().Unique() }

// Count returns the number of unique matches.
func (q *Query) Count() int { return q.compiled().Count() }

// Keys returns the cluster keys of the unique matches.
func (q *Query) Keys() []string {
	var out []string
	for _, e := range q.Unique() {
		out = append(out, e.Key)
	}
	return out
}
