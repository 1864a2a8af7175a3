// Package queryref is the reference evaluator for errata queries. It
// reads a /v1/errata query string the way README.md's HTTP contract
// states it, with its own parser, and answers it by a linear scan over
// db.Errata() or db.Unique() with one predicate per filter. It shares
// no code with the filter table and the index (internal/index) or the
// server (internal/serve) that the tests hold to it, and it never
// answers a request: only _test.go files import it, which
// internal/archtest enforces.
package queryref

import (
	"fmt"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/pkg/domain"
)

// Query is one parsed query: its filters, and the pagination of a
// /v1/errata page.
type Query struct {
	preds  []pred
	Unique bool
	Limit  int
	Offset int
}

type pred func(db *domain.Database, e *domain.Erratum) bool

// repeatable lists the parameters that may be given more than once.
var repeatable = map[string]bool{"category": true, "any_category": true, "class": true, "trigger": true, "msr": true}

// spellings maps each accepted value, lowercased and trimmed, of the
// enumerated parameters to its constant.
var spellings = map[string]map[string]int{
	"vendor": {"intel": int(domain.Intel), "amd": int(domain.AMD)},
	"workaround": {"none": int(domain.WorkaroundNone), "bios": int(domain.WorkaroundBIOS),
		"software": int(domain.WorkaroundSoftware), "peripherals": int(domain.WorkaroundPeripherals),
		"absent": int(domain.WorkaroundAbsent), "documentationfix": int(domain.WorkaroundDocFix), "docfix": int(domain.WorkaroundDocFix)},
	"fix": {"nofixplanned": int(domain.FixNone), "nofix": int(domain.FixNone), "no fix planned": int(domain.FixNone),
		"fixplanned": int(domain.FixPlanned), "fix planned": int(domain.FixPlanned), "fixed": int(domain.FixDone)},
}

var datePattern = regexp.MustCompile(`^[0-9]{4}-[0-9]{2}-[0-9]{2}$`)

// Parse reads a raw query string. An error means the server must
// answer 400.
func Parse(rawQuery string) (*Query, error) {
	values, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, err
	}
	q := &Query{Unique: true, Limit: 100}
	from, to := time.Time{}, time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)
	dated := false
	for name, vals := range values {
		if len(vals) > 1 && !repeatable[name] {
			return nil, fmt.Errorf("%s given %d times", name, len(vals))
		}
		v := vals[0]
		switch name {
		case "vendor", "workaround", "fix":
			want, ok := spellings[name][strings.ToLower(strings.TrimSpace(v))]
			if !ok {
				return nil, fmt.Errorf("%s %q", name, v)
			}
			q.where(func(db *domain.Database, e *domain.Erratum) bool {
				switch d := db.Docs[e.DocKey]; name {
				case "vendor":
					return d != nil && int(d.Vendor) == want
				case "workaround":
					return int(e.WorkaroundCat) == want
				}
				return int(e.Fix) == want
			})
		case "doc":
			q.where(func(_ *domain.Database, e *domain.Erratum) bool { return e.DocKey == v })
		case "category":
			for _, c := range vals {
				q.where(func(_ *domain.Database, e *domain.Erratum) bool { return e.Ann.Has(c) })
			}
		case "any_category":
			for _, group := range vals {
				var ids []string
				for _, id := range strings.Split(group, ",") {
					if id = strings.TrimSpace(id); id != "" {
						ids = append(ids, id)
					}
				}
				q.where(func(_ *domain.Database, e *domain.Erratum) bool { return slices.ContainsFunc(ids, e.Ann.Has) })
			}
		case "class":
			for _, c := range vals {
				q.where(func(db *domain.Database, e *domain.Erratum) bool {
					return slices.ContainsFunc(domain.Kinds, func(k domain.Kind) bool {
						return slices.Contains(e.Ann.Classes(k, db.Scheme), c)
					})
				})
			}
		case "trigger":
			q.where(func(_ *domain.Database, e *domain.Erratum) bool {
				var have []string
				for _, it := range e.Ann.Triggers {
					have = append(have, it.Category)
				}
				return !slices.ContainsFunc(vals, func(c string) bool { return !slices.Contains(have, c) })
			})
		case "msr":
			for _, m := range vals {
				q.where(func(_ *domain.Database, e *domain.Erratum) bool { return slices.Contains(e.Ann.MSRs, m) })
			}
		case "title":
			q.where(func(_ *domain.Database, e *domain.Erratum) bool {
				return strings.Contains(strings.ToLower(e.Title), strings.ToLower(v))
			})
		case "complex", "sim_only", "unique":
			on, err := parseBool(v)
			switch {
			case err != nil:
				return nil, err
			case name == "unique":
				q.Unique = on
			case on:
				q.where(func(_ *domain.Database, e *domain.Erratum) bool {
					return e.Ann.ComplexConditions && name == "complex" || e.Ann.SimulationOnly && name == "sim_only"
				})
			}
		case "min_triggers", "limit", "offset":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%s %q", name, v)
			}
			switch name {
			case "min_triggers":
				q.where(func(db *domain.Database, e *domain.Erratum) bool {
					return len(e.Ann.Categories(domain.Trigger, db.Scheme)) >= n
				})
			case "limit":
				q.Limit = min(n, 1000)
			default:
				q.Offset = n
			}
		case "disclosed_from", "disclosed_to":
			if v == "" {
				continue
			}
			d, err := time.Parse(time.DateOnly, v)
			if err != nil || !datePattern.MatchString(v) {
				return nil, fmt.Errorf("%s %q", name, v)
			}
			if name == "disclosed_from" {
				from = d
			} else {
				to = d
			}
			dated = true
		default:
			return nil, fmt.Errorf("unknown parameter %q", name)
		}
	}
	if dated {
		q.where(func(_ *domain.Database, e *domain.Erratum) bool {
			d := e.Disclosed
			return !d.IsZero() && !d.Before(from) && d.Before(to)
		})
	}
	return q, nil
}

func (q *Query) where(p pred) { q.preds = append(q.preds, p) }

func parseBool(v string) (bool, error) {
	switch strings.ToLower(v) {
	case "1", "true", "yes":
		return true, nil
	case "0", "false", "no":
		return false, nil
	}
	return false, fmt.Errorf("boolean %q", v)
}

// Match returns every entry of db.Errata() that passes all filters, or
// of db.Unique() when unique is set.
func (q *Query) Match(db *domain.Database, unique bool) []*domain.Erratum {
	entries := db.Errata()
	if unique {
		entries = db.Unique()
	}
	var out []*domain.Erratum
	for _, e := range entries {
		if !slices.ContainsFunc(q.preds, func(p pred) bool { return !p(db, e) }) {
			out = append(out, e)
		}
	}
	return out
}
