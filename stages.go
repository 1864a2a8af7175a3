package rememberr

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/pipeline"
	"repro/internal/specdoc"
	"repro/internal/store"
	"repro/internal/timeline"
	"repro/pkg/domain"
)

// This file declares the seven build stages — corpus, render, parse,
// dedup, annotate, timeline, validate — over the internal/pipeline
// runner. The declaration preserves the monolithic Build's exact
// behavior (stage order, span names and item counts, error messages,
// and byte-identical output at every worker count and cache state); the
// runner adds content-addressed memoization when Build runs with
// WithCache.
//
// Artifact encoding reuses internal/store's deterministic FormatVersion
// 2 database encoding (no postings/fragments — mid-pipeline databases
// are still being mutated), embedded as a base64 []byte inside a small
// per-stage container. Decoding sniffs the format, so the code would
// still read a v1-JSON payload; in practice the stage Version bumps
// that came with the v2 switch retired all v1 cache entries.
// Database payloads stay as undecoded bytes (pipeDB) until a
// live downstream stage — or the final report assembly — actually needs
// the value, so a fully warm rebuild decodes exactly two databases (the
// ground truth and the final output) and nothing else.
//
// Mutation contract: dedup, annotate and timeline take over their input
// database and mutate it in place, exactly like the monolith did. The
// runner encodes every artifact before the next stage runs, so cached
// bytes always reflect the stage's own output, never a downstream
// mutation.

// pipeDB is a database artifact payload that can hold either the live
// in-memory database, its deterministic store encoding, or both. Both
// directions memoize, so a value shared between stages (timeline and
// validate share one) is encoded and decoded at most once.
type pipeDB struct {
	raw []byte
	db  *domain.Database
}

func (p *pipeDB) database() (*domain.Database, error) {
	if p.db == nil {
		r, err := store.OpenBytes(p.raw)
		if err != nil {
			return nil, fmt.Errorf("rememberr: decode cached database artifact: %w", err)
		}
		db, err := r.Database()
		if err != nil {
			return nil, fmt.Errorf("rememberr: decode cached database artifact: %w", err)
		}
		p.db = db
	}
	return p.db, nil
}

func (p *pipeDB) encoded() ([]byte, error) {
	if p.raw == nil {
		raw, err := store.EncodeV2(p.db, store.V2Options{})
		if err != nil {
			return nil, fmt.Errorf("rememberr: encode database artifact: %w", err)
		}
		p.raw = raw
	}
	return p.raw, nil
}

// gtArtifact is the cached form of the generator's ground truth.
type gtArtifact struct {
	DB             []byte                     `json:"db"`
	Lineages       map[string]*corpus.Lineage `json:"lineages"`
	ConfirmedPairs [][2]string                `json:"confirmed_pairs"`
	Inventory      corpus.ErrorInventory      `json:"inventory"`
	Seed           int64                      `json:"seed"`
}

func encodeGroundTruth(gt *corpus.GroundTruth) ([]byte, error) {
	raw, err := store.EncodeV2(gt.DB, store.V2Options{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(gtArtifact{
		DB:             raw,
		Lineages:       gt.Lineages,
		ConfirmedPairs: gt.ConfirmedPairs,
		Inventory:      gt.Inventory,
		Seed:           gt.Seed,
	})
}

func decodeGroundTruth(b []byte) (any, error) {
	var a gtArtifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, err
	}
	r, err := store.OpenBytes(a.DB)
	if err != nil {
		return nil, err
	}
	db, err := r.Database()
	if err != nil {
		return nil, err
	}
	return &corpus.GroundTruth{
		DB:             db,
		Lineages:       a.Lineages,
		ConfirmedPairs: a.ConfirmedPairs,
		Inventory:      a.Inventory,
		Seed:           a.Seed,
	}, nil
}

// parseValue carries the parsed database plus the parser diagnostics.
type parseValue struct {
	db    *pipeDB
	diags []specdoc.Diagnostic
}

type parseArtifact struct {
	DB          []byte               `json:"db"`
	Diagnostics []specdoc.Diagnostic `json:"diagnostics"`
}

// reviewedRef is a CandidatePair with the entry pointers replaced by
// stable entry references ("docKey#seq"), so the dedup summary can be
// cached independently of any particular in-memory database and relinked
// against the final one at report-assembly time.
type reviewedRef struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	Score     float64 `json:"score"`
	Confirmed bool    `json:"confirmed,omitempty"`
}

type dedupSummary struct {
	UniqueIntel        int           `json:"unique_intel"`
	UniqueAMD          int           `json:"unique_amd"`
	ExactTitleClusters int           `json:"exact_title_clusters"`
	Reviewed           []reviewedRef `json:"reviewed"`
	ConfirmedPairs     int           `json:"confirmed_pairs"`
}

func summarizeDedup(r *dedup.Result) dedupSummary {
	s := dedupSummary{
		UniqueIntel:        r.UniqueIntel,
		UniqueAMD:          r.UniqueAMD,
		ExactTitleClusters: r.ExactTitleClusters,
		ConfirmedPairs:     r.ConfirmedPairs,
	}
	if len(r.Reviewed) > 0 {
		s.Reviewed = make([]reviewedRef, len(r.Reviewed))
		for i, p := range r.Reviewed {
			s.Reviewed[i] = reviewedRef{
				A: corpus.EntryRef(p.A), B: corpus.EntryRef(p.B),
				Score: p.Score, Confirmed: p.Confirmed,
			}
		}
	}
	return s
}

// reviveDedup rebuilds a *dedup.Result whose candidate pairs point into
// db. On the cold path the refs came from the same database, so the
// pairs resolve to the very same entries the dedup stage reviewed.
func reviveDedup(s dedupSummary, db *domain.Database) (*dedup.Result, error) {
	r := &dedup.Result{
		UniqueIntel:        s.UniqueIntel,
		UniqueAMD:          s.UniqueAMD,
		ExactTitleClusters: s.ExactTitleClusters,
		ConfirmedPairs:     s.ConfirmedPairs,
	}
	if len(s.Reviewed) == 0 {
		return r, nil
	}
	byRef := make(map[string]*domain.Erratum)
	for _, e := range db.Errata() {
		byRef[corpus.EntryRef(e)] = e
	}
	r.Reviewed = make([]dedup.CandidatePair, len(s.Reviewed))
	for i, p := range s.Reviewed {
		a, b := byRef[p.A], byRef[p.B]
		if a == nil || b == nil {
			return nil, fmt.Errorf("rememberr: dedup summary references unknown entries %q, %q", p.A, p.B)
		}
		r.Reviewed[i] = dedup.CandidatePair{A: a, B: b, Score: p.Score, Confirmed: p.Confirmed}
	}
	return r, nil
}

// dedupValue carries the deduplicated database plus the ref-based
// summary of the run.
type dedupValue struct {
	db  *pipeDB
	sum dedupSummary
}

type dedupArtifact struct {
	DB     []byte       `json:"db"`
	Result dedupSummary `json:"result"`
}

// annotateValue carries the annotated database plus the four-eyes
// protocol results.
type annotateValue struct {
	db  *pipeDB
	res *annotate.Result
}

type annotateArtifact struct {
	DB     []byte           `json:"db"`
	Result *annotate.Result `json:"result"`
}

// timelineValue carries the final database plus the disclosure-date
// inference stats. The validate stage passes the same value through, so
// its artifact shares the timeline stage's encoded bytes.
type timelineValue struct {
	db    *pipeDB
	stats timeline.Stats
}

type timelineArtifact struct {
	DB    []byte         `json:"db"`
	Stats timeline.Stats `json:"stats"`
}

func encodeTimelineValue(v any) ([]byte, error) {
	tv := v.(*timelineValue)
	raw, err := tv.db.encoded()
	if err != nil {
		return nil, err
	}
	return json.Marshal(timelineArtifact{DB: raw, Stats: tv.stats})
}

func decodeTimelineValue(b []byte) (any, error) {
	var a timelineArtifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, err
	}
	return &timelineValue{db: &pipeDB{raw: a.DB}, stats: a.Stats}, nil
}

// buildStages declares the build graph for one configuration.
// Parallelism is deliberately absent from every Config fingerprint: the
// build contract guarantees byte-identical output at every worker
// count, so artifacts cached at one parallelism are valid at all of
// them. Bump a stage's Version whenever its implementation
// changes observable output.
func buildStages(opts buildConfig) []*pipeline.Stage {
	reg := opts.Observability
	return []*pipeline.Stage{
		{
			ID: "corpus", Version: "v2",
			Config: pipeline.Fingerprint("seed=" + strconv.FormatInt(opts.Seed, 10)),
			Run: func(c *pipeline.Ctx) (any, error) {
				gt, err := corpus.Generate(opts.Seed)
				if err != nil {
					return nil, fmt.Errorf("rememberr: corpus generation: %w", err)
				}
				c.SetItems(len(gt.DB.Errata()))
				return gt, nil
			},
			Encode: func(v any) ([]byte, error) { return encodeGroundTruth(v.(*corpus.GroundTruth)) },
			Decode: decodeGroundTruth,
		},
		{
			ID: "render", Version: "v1", Inputs: []string{"corpus"},
			Run: func(c *pipeline.Ctx) (any, error) {
				v, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				gt := v.(*corpus.GroundTruth)
				dup := make(map[string]string)
				for _, fe := range gt.Inventory.FieldErrors {
					if fe.Kind == "duplicate" {
						field := fe.Field
						if field == "Description" {
							field = "Problem"
						}
						dup[fe.Ref] = field
					}
				}
				texts := specdoc.WriteAllParallel(gt.DB, specdoc.WriteOptions{DuplicateFields: dup}, opts.Parallelism)
				c.SetItems(len(texts))
				return texts, nil
			},
			Encode: func(v any) ([]byte, error) { return json.Marshal(v.(map[string]string)) },
			Decode: func(b []byte) (any, error) {
				var texts map[string]string
				err := json.Unmarshal(b, &texts)
				return texts, err
			},
		},
		{
			ID: "parse", Version: "v2", Inputs: []string{"render"},
			Run: func(c *pipeline.Ctx) (any, error) {
				v, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				texts := v.(map[string]string)
				db, diags, err := specdoc.ParseAllParallel(texts, opts.Parallelism)
				if err != nil {
					return nil, fmt.Errorf("rememberr: parse: %w", err)
				}
				c.SetItems(len(texts))
				return &parseValue{db: &pipeDB{db: db}, diags: diags}, nil
			},
			Encode: func(v any) ([]byte, error) {
				pv := v.(*parseValue)
				raw, err := pv.db.encoded()
				if err != nil {
					return nil, err
				}
				return json.Marshal(parseArtifact{DB: raw, Diagnostics: pv.diags})
			},
			Decode: func(b []byte) (any, error) {
				var a parseArtifact
				if err := json.Unmarshal(b, &a); err != nil {
					return nil, err
				}
				return &parseValue{db: &pipeDB{raw: a.DB}, diags: a.Diagnostics}, nil
			},
		},
		{
			ID: "dedup", Version: "v2", Inputs: []string{"parse", "corpus"},
			Config: pipeline.Fingerprint(
				"metric="+string(opts.SimilarityMetric),
				"threshold="+strconv.FormatFloat(opts.SimilarityThreshold, 'g', -1, 64),
				"lsh="+strconv.FormatBool(opts.UseLSH),
			),
			Run: func(c *pipeline.Ctx) (any, error) {
				v0, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				v1, err := c.Input(1)
				if err != nil {
					return nil, err
				}
				db, err := v0.(*parseValue).db.database()
				if err != nil {
					return nil, err
				}
				gt := v1.(*corpus.GroundTruth)
				truthKey := make(map[string]string)
				for _, e := range gt.DB.Errata() {
					truthKey[corpus.EntryRef(e)] = e.Key
				}
				oracle := func(a, b *domain.Erratum) bool {
					ka, kb := truthKey[corpus.EntryRef(a)], truthKey[corpus.EntryRef(b)]
					return ka != "" && ka == kb
				}
				dopts := dedup.Options{
					Metric:      opts.SimilarityMetric,
					Oracle:      oracle,
					UseLSH:      opts.UseLSH,
					Parallelism: opts.Parallelism,
				}
				// The threshold is already resolved, so pass it
				// explicitly: an explicit zero must review every
				// candidate pair rather than trip dedup's own default.
				dopts.SetThreshold(opts.SimilarityThreshold)
				dres, err := dedup.Deduplicate(db, dopts)
				if err != nil {
					return nil, fmt.Errorf("rememberr: dedup: %w", err)
				}
				c.SetItems(len(dres.Reviewed))
				return &dedupValue{db: &pipeDB{db: db}, sum: summarizeDedup(dres)}, nil
			},
			Encode: func(v any) ([]byte, error) {
				dv := v.(*dedupValue)
				raw, err := dv.db.encoded()
				if err != nil {
					return nil, err
				}
				return json.Marshal(dedupArtifact{DB: raw, Result: dv.sum})
			},
			Decode: func(b []byte) (any, error) {
				var a dedupArtifact
				if err := json.Unmarshal(b, &a); err != nil {
					return nil, err
				}
				return &dedupValue{db: &pipeDB{raw: a.DB}, sum: a.Result}, nil
			},
		},
		{
			ID: "annotate", Version: "v2", Inputs: []string{"dedup", "corpus"},
			Config: pipeline.Fingerprint(
				"seed="+strconv.FormatInt(opts.Seed, 10),
				"steps="+strconv.Itoa(opts.AnnotationSteps),
			),
			Run: func(c *pipeline.Ctx) (any, error) {
				v0, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				v1, err := c.Input(1)
				if err != nil {
					return nil, err
				}
				db, err := v0.(*dedupValue).db.database()
				if err != nil {
					return nil, err
				}
				gt := v1.(*corpus.GroundTruth)
				truthAnn := make(map[string]*domain.Annotation)
				for _, e := range gt.DB.Errata() {
					ann := e.Ann
					truthAnn[corpus.EntryRef(e)] = &ann
				}
				truth := func(e *domain.Erratum) *domain.Annotation {
					return truthAnn[corpus.EntryRef(e)]
				}
				aopts := annotate.DefaultOptions()
				aopts.Seed = opts.Seed
				aopts.Steps = opts.AnnotationSteps
				aopts.Workers = opts.Parallelism
				aopts.Trace = c.Span()
				if opts.AnnotationSteps != 7 && opts.AnnotationSteps > 0 {
					aopts.StepFractions = uniformFractions(opts.AnnotationSteps)
				}
				ares, err := annotate.Run(db, classify.NewEngineConfig(classify.Config{
					Prefilter: true, Memo: true, Obs: reg,
				}), truth, aopts)
				if err != nil {
					return nil, fmt.Errorf("rememberr: annotate: %w", err)
				}
				return &annotateValue{db: &pipeDB{db: db}, res: ares}, nil
			},
			Encode: func(v any) ([]byte, error) {
				av := v.(*annotateValue)
				raw, err := av.db.encoded()
				if err != nil {
					return nil, err
				}
				return json.Marshal(annotateArtifact{DB: raw, Result: av.res})
			},
			Decode: func(b []byte) (any, error) {
				var a annotateArtifact
				if err := json.Unmarshal(b, &a); err != nil {
					return nil, err
				}
				return &annotateValue{db: &pipeDB{raw: a.DB}, res: a.Result}, nil
			},
		},
		{
			ID: "timeline", Version: "v2", Inputs: []string{"annotate"},
			Config: pipeline.Fingerprint("interpolate=" + strconv.FormatBool(opts.Interpolate)),
			Run: func(c *pipeline.Ctx) (any, error) {
				v, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				db, err := v.(*annotateValue).db.database()
				if err != nil {
					return nil, err
				}
				stats := timeline.InferDisclosures(db, timeline.Options{Interpolate: opts.Interpolate})
				return &timelineValue{db: &pipeDB{db: db}, stats: stats}, nil
			},
			Encode: encodeTimelineValue,
			Decode: decodeTimelineValue,
		},
		{
			ID: "validate", Version: "v2", Inputs: []string{"timeline"},
			Run: func(c *pipeline.Ctx) (any, error) {
				v, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				tv := v.(*timelineValue)
				db, err := tv.db.database()
				if err != nil {
					return nil, err
				}
				if err := db.Validate(); err != nil {
					return nil, fmt.Errorf("rememberr: validation: %w", err)
				}
				// Pass the timeline value straight through: the shared
				// pipeDB means the artifact reuses the already-encoded
				// bytes (same digest, deduplicated in the object store).
				return tv, nil
			},
			Encode: encodeTimelineValue,
			Decode: decodeTimelineValue,
		},
	}
}

// assembleBuild turns the runner's per-stage artifacts into the public
// Database and BuildReport, decoding cached artifacts on demand.
func assembleBuild(res *pipeline.Result) (*Database, *BuildReport, error) {
	gtv, err := res.Value("corpus")
	if err != nil {
		return nil, nil, err
	}
	pvv, err := res.Value("parse")
	if err != nil {
		return nil, nil, err
	}
	dvv, err := res.Value("dedup")
	if err != nil {
		return nil, nil, err
	}
	avv, err := res.Value("annotate")
	if err != nil {
		return nil, nil, err
	}
	tvv, err := res.Value("validate")
	if err != nil {
		return nil, nil, err
	}
	gt := gtv.(*corpus.GroundTruth)
	tv := tvv.(*timelineValue)
	db, err := tv.db.database()
	if err != nil {
		return nil, nil, err
	}
	dres, err := reviveDedup(dvv.(*dedupValue).sum, db)
	if err != nil {
		return nil, nil, err
	}
	rep := &BuildReport{
		Diagnostics: pvv.(*parseValue).diags,
		Dedup:       dres,
		Annotation:  avv.(*annotateValue).res,
		Timeline:    tv.stats,
		GroundTruth: gt,
		Trace:       res.Trace,
	}
	return &Database{core: db, report: rep}, rep, nil
}
