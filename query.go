package rememberr

import (
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/taxonomy"
	"repro/pkg/domain"
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
// # Execution
//
// By default terminal operations scan all entries and evaluate every
// filter closure per entry. After Database.BuildIndex, the same Query
// compiles transparently to postings-list operations on the inverted
// index (see internal/index); both paths return identical results, a
// contract pinned by the equivalence tests.
type Query struct {
	db      *Database
	filters []filter
}

// filter is one conjunctive condition in both executable forms: a
// closure for the scan path — which deliberately receives the database
// as an argument instead of capturing it, so filters never pin stale
// state — and a compiler onto an index query for the indexed path.
type filter struct {
	pred    func(db *domain.Database, e *Erratum) bool
	compile func(iq *index.Query)
}

// Query starts a new query over all errata.
func (db *Database) Query() *Query {
	return &Query{db: db}
}

// with returns a new query extended by one filter. Copy-on-extend is
// the guard behind the reuse contract above: the receiver's filter
// slice is never appended to in place, so no two queries ever share a
// growing backing array.
func (q *Query) with(f filter) *Query {
	filters := make([]filter, len(q.filters)+1)
	copy(filters, q.filters)
	filters[len(q.filters)] = f
	return &Query{db: q.db, filters: filters}
}

// Vendor keeps errata of one vendor.
func (q *Query) Vendor(v Vendor) *Query {
	return q.with(filter{
		pred: func(db *domain.Database, e *Erratum) bool {
			d := db.Docs[e.DocKey]
			return d != nil && d.Vendor == v
		},
		compile: func(iq *index.Query) { iq.Vendor(v) },
	})
}

// InDocument keeps errata of one document.
func (q *Query) InDocument(key string) *Query {
	return q.with(filter{
		pred:    func(_ *domain.Database, e *Erratum) bool { return e.DocKey == key },
		compile: func(iq *index.Query) { iq.InDocument(key) },
	})
}

// WithCategory keeps errata annotated with the abstract category (any
// dimension).
func (q *Query) WithCategory(categoryID string) *Query {
	return q.with(filter{
		pred:    func(_ *domain.Database, e *Erratum) bool { return e.Ann.Has(categoryID) },
		compile: func(iq *index.Query) { iq.WithCategory(categoryID) },
	})
}

// AnyCategory keeps errata annotated with at least one of the given
// abstract categories — the disjunctive counterpart of chaining
// WithCategory calls, matching the paper's semantics for contexts and
// effects ("being in any of its contexts is sufficient").
func (q *Query) AnyCategory(categoryIDs ...string) *Query {
	ids := append([]string(nil), categoryIDs...)
	return q.with(filter{
		pred: func(_ *domain.Database, e *Erratum) bool {
			for _, c := range ids {
				if e.Ann.Has(c) {
					return true
				}
			}
			return false
		},
		compile: func(iq *index.Query) { iq.AnyCategory(ids...) },
	})
}

// WithClass keeps errata with at least one item of the given class.
func (q *Query) WithClass(classID string) *Query {
	return q.with(filter{
		pred: func(db *domain.Database, e *Erratum) bool {
			for _, k := range taxonomy.Kinds {
				for _, cl := range e.Ann.Classes(k, db.Scheme) {
					if cl == classID {
						return true
					}
				}
			}
			return false
		},
		compile: func(iq *index.Query) { iq.WithClass(classID) },
	})
}

// WithAllTriggers keeps errata requiring at least all the given
// triggers (triggers are conjunctive).
func (q *Query) WithAllTriggers(categoryIDs ...string) *Query {
	ids := append([]string(nil), categoryIDs...)
	return q.with(filter{
		pred: func(_ *domain.Database, e *Erratum) bool {
			for _, c := range ids {
				found := false
				for _, it := range e.Ann.Triggers {
					if it.Category == c {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			return true
		},
		compile: func(iq *index.Query) { iq.WithAllTriggers(ids...) },
	})
}

// MinTriggers keeps errata with at least n distinct trigger categories.
func (q *Query) MinTriggers(n int) *Query {
	return q.with(filter{
		pred: func(db *domain.Database, e *Erratum) bool {
			return len(e.Ann.Categories(taxonomy.Trigger, db.Scheme)) >= n
		},
		compile: func(iq *index.Query) { iq.MinTriggers(n) },
	})
}

// Workaround keeps errata with the given workaround category.
func (q *Query) Workaround(w WorkaroundCategory) *Query {
	return q.with(filter{
		pred:    func(_ *domain.Database, e *Erratum) bool { return e.WorkaroundCat == w },
		compile: func(iq *index.Query) { iq.Workaround(w) },
	})
}

// Fix keeps errata with the given fix status.
func (q *Query) Fix(f FixStatus) *Query {
	return q.with(filter{
		pred:    func(_ *domain.Database, e *Erratum) bool { return e.Fix == f },
		compile: func(iq *index.Query) { iq.Fix(f) },
	})
}

// Complex keeps errata mentioning a complex set of conditions.
func (q *Query) Complex() *Query {
	return q.with(filter{
		pred:    func(_ *domain.Database, e *Erratum) bool { return e.Ann.ComplexConditions },
		compile: func(iq *index.Query) { iq.Complex() },
	})
}

// SimulationOnly keeps errata whose bug has only been observed in
// simulation (the paper found five AMD and one Intel such erratum).
func (q *Query) SimulationOnly() *Query {
	return q.with(filter{
		pred:    func(_ *domain.Database, e *Erratum) bool { return e.Ann.SimulationOnly },
		compile: func(iq *index.Query) { iq.SimulationOnly() },
	})
}

// DisclosedBetween keeps errata disclosed in [from, to).
func (q *Query) DisclosedBetween(from, to time.Time) *Query {
	return q.with(filter{
		pred: func(_ *domain.Database, e *Erratum) bool {
			return !e.Disclosed.IsZero() && !e.Disclosed.Before(from) && e.Disclosed.Before(to)
		},
		compile: func(iq *index.Query) { iq.DisclosedBetween(from, to) },
	})
}

// TitleContains keeps errata whose title contains the substring
// (case-insensitive).
func (q *Query) TitleContains(sub string) *Query {
	lower := strings.ToLower(sub)
	return q.with(filter{
		pred: func(_ *domain.Database, e *Erratum) bool {
			return strings.Contains(strings.ToLower(e.Title), lower)
		},
		compile: func(iq *index.Query) { iq.TitleContains(sub) },
	})
}

// ObservableIn keeps errata whose effects are observable in the given
// MSR.
func (q *Query) ObservableIn(msr string) *Query {
	return q.with(filter{
		pred: func(_ *domain.Database, e *Erratum) bool {
			for _, m := range e.Ann.MSRs {
				if m == msr {
					return true
				}
			}
			return false
		},
		compile: func(iq *index.Query) { iq.ObservableIn(msr) },
	})
}

func (q *Query) match(e *Erratum) bool {
	for _, f := range q.filters {
		if !f.pred(q.db.core, e) {
			return false
		}
	}
	return true
}

// compiled returns the query compiled onto the database's inverted
// index, or nil when no index has been built.
func (q *Query) compiled() *index.Query {
	ix := q.db.Index()
	if ix == nil {
		return nil
	}
	iq := ix.Query()
	for _, f := range q.filters {
		f.compile(iq)
	}
	return iq
}

// All returns every matching entry (duplicates counted individually).
func (q *Query) All() []*Erratum {
	if iq := q.compiled(); iq != nil {
		return iq.All()
	}
	return q.allClosure()
}

// allClosure is the scan path: evaluate every filter closure per entry.
func (q *Query) allClosure() []*Erratum {
	var out []*Erratum
	for _, e := range q.db.core.Errata() {
		if q.match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Unique returns one representative per matching deduplicated erratum.
func (q *Query) Unique() []*Erratum {
	if iq := q.compiled(); iq != nil {
		return iq.Unique()
	}
	return q.uniqueClosure()
}

func (q *Query) uniqueClosure() []*Erratum {
	var out []*Erratum
	for _, e := range q.db.core.Unique() {
		if q.match(e) {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of unique matches.
func (q *Query) Count() int { return len(q.Unique()) }

// Keys returns the cluster keys of the unique matches.
func (q *Query) Keys() []string {
	var out []string
	for _, e := range q.Unique() {
		out = append(out, e.Key)
	}
	return out
}
