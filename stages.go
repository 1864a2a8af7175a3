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
// Every stage that outputs a database outputs a store.Artifact: the
// database as bare FormatVersion 2 plus the stage's metadata (the
// ground truth's lineages, the parse diagnostics, the dedup summary,
// the annotation results, the timeline stats). A cached database stays
// undecoded until a live downstream stage — or the final report
// assembly — actually needs it, so a fully warm rebuild decodes
// exactly two databases (the ground truth and the final output) and
// nothing else.
//
// Mutation contract: dedup, annotate and timeline take over their input
// database and mutate it in place, exactly like the monolith did. The
// runner encodes every artifact before the next stage runs, so cached
// bytes always reflect the stage's own output, never a downstream
// mutation.

// The values of the database stages. The validate stage passes the
// timeline value through, so its artifact shares the timeline stage's
// encoded bytes.
type (
	parseValue    = store.Artifact[[]specdoc.Diagnostic]
	dedupValue    = store.Artifact[dedupSummary]
	annotateValue = store.Artifact[*annotate.Result]
	timelineValue = store.Artifact[timeline.Stats]
)

// encodeArtifact and decodeArtifact are the Encode and Decode of every
// stage whose value is a *store.Artifact[T].
func encodeArtifact[T any](v any) ([]byte, error) { return v.(*store.Artifact[T]).Marshal() }

func decodeArtifact[T any](b []byte) (any, error) {
	a, err := store.UnmarshalArtifact[T](b)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// database decodes a stage value's database, naming a corrupt cached
// artifact as such.
func database[T any](a *store.Artifact[T]) (*domain.Database, error) {
	db, err := a.Database()
	if err != nil {
		return nil, fmt.Errorf("rememberr: decode cached database artifact: %w", err)
	}
	return db, nil
}

// The corpus stage's value is the ground truth itself, which every
// later stage reads directly; its artifact carries the database as the
// envelope's and the rest (corpus.GroundTruth.DB is not marshalled) as
// metadata, and decodes eagerly.
func encodeGroundTruth(v any) ([]byte, error) {
	gt := v.(*corpus.GroundTruth)
	return store.NewArtifact(gt.DB, gt).Marshal()
}

func decodeGroundTruth(b []byte) (any, error) {
	a, err := store.UnmarshalArtifact[*corpus.GroundTruth](b)
	if err != nil {
		return nil, err
	}
	if a.Meta == nil {
		return nil, fmt.Errorf("rememberr: ground-truth artifact without metadata")
	}
	if a.Meta.DB, err = a.Database(); err != nil {
		return nil, err
	}
	return a.Meta, nil
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

// buildStages declares the build graph for one configuration. Each
// stage runs its package's paper configuration, so the seed is the only
// Config fingerprint. Parallelism is deliberately absent from it: the
// build contract guarantees byte-identical output at every worker
// count, so artifacts cached at one parallelism are valid at all of
// them. Bump a stage's Version whenever its implementation or its
// artifact encoding changes observable output.
func buildStages(opts buildConfig) []*pipeline.Stage {
	reg := opts.Observability
	return []*pipeline.Stage{
		{
			ID: "corpus", Version: "v4",
			Config: pipeline.Fingerprint("seed=" + strconv.FormatInt(opts.Seed, 10)),
			Run: func(c *pipeline.Ctx) (any, error) {
				gt, err := corpus.Generate(opts.Seed)
				if err != nil {
					return nil, fmt.Errorf("rememberr: corpus generation: %w", err)
				}
				c.SetItems(len(gt.DB.Errata()))
				return gt, nil
			},
			Encode: encodeGroundTruth,
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
				texts := specdoc.WriteAllParallel(gt.DB, specdoc.WriteOptions{DuplicateFields: gt.DuplicateFields()}, opts.Parallelism)
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
			ID: "parse", Version: "v4", Inputs: []string{"render"},
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
				return store.NewArtifact(db, diags), nil
			},
			Encode: encodeArtifact[[]specdoc.Diagnostic],
			Decode: decodeArtifact[[]specdoc.Diagnostic],
		},
		{
			ID: "dedup", Version: "v4", Inputs: []string{"parse", "corpus"},
			Run: func(c *pipeline.Ctx) (any, error) {
				v0, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				v1, err := c.Input(1)
				if err != nil {
					return nil, err
				}
				db, err := database(v0.(*parseValue))
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
				dres, err := dedup.Deduplicate(db, dedup.Options{Oracle: oracle, Parallelism: opts.Parallelism})
				if err != nil {
					return nil, fmt.Errorf("rememberr: dedup: %w", err)
				}
				c.SetItems(len(dres.Reviewed))
				return store.NewArtifact(db, summarizeDedup(dres)), nil
			},
			Encode: encodeArtifact[dedupSummary],
			Decode: decodeArtifact[dedupSummary],
		},
		{
			ID: "annotate", Version: "v4", Inputs: []string{"dedup", "corpus"},
			Config: pipeline.Fingerprint("seed=" + strconv.FormatInt(opts.Seed, 10)),
			Run: func(c *pipeline.Ctx) (any, error) {
				v0, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				v1, err := c.Input(1)
				if err != nil {
					return nil, err
				}
				db, err := database(v0.(*dedupValue))
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
				aopts.Workers = opts.Parallelism
				aopts.Trace = c.Span()
				ares, err := annotate.Run(db, classify.NewEngineConfig(classify.Config{
					Prefilter: true, Memo: true, Obs: reg,
				}), truth, aopts)
				if err != nil {
					return nil, fmt.Errorf("rememberr: annotate: %w", err)
				}
				return store.NewArtifact(db, ares), nil
			},
			Encode: encodeArtifact[*annotate.Result],
			Decode: decodeArtifact[*annotate.Result],
		},
		{
			ID: "timeline", Version: "v4", Inputs: []string{"annotate"},
			Run: func(c *pipeline.Ctx) (any, error) {
				v, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				db, err := database(v.(*annotateValue))
				if err != nil {
					return nil, err
				}
				stats := timeline.InferDisclosures(db, timeline.DefaultOptions())
				return store.NewArtifact(db, stats), nil
			},
			Encode: encodeArtifact[timeline.Stats],
			Decode: decodeArtifact[timeline.Stats],
		},
		{
			ID: "validate", Version: "v4", Inputs: []string{"timeline"},
			Run: func(c *pipeline.Ctx) (any, error) {
				v, err := c.Input(0)
				if err != nil {
					return nil, err
				}
				tv := v.(*timelineValue)
				db, err := database(tv)
				if err != nil {
					return nil, err
				}
				if err := db.Validate(); err != nil {
					return nil, fmt.Errorf("rememberr: validation: %w", err)
				}
				// Pass the timeline value straight through: the shared
				// artifact reuses the already-encoded bytes (same
				// digest, deduplicated in the object store).
				return tv, nil
			},
			Encode: encodeArtifact[timeline.Stats],
			Decode: decodeArtifact[timeline.Stats],
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
	db, err := database(tv)
	if err != nil {
		return nil, nil, err
	}
	dres, err := reviveDedup(dvv.(*dedupValue).Meta, db)
	if err != nil {
		return nil, nil, err
	}
	rep := &BuildReport{
		Diagnostics: pvv.(*parseValue).Meta,
		Dedup:       dres,
		Annotation:  avv.(*annotateValue).Meta,
		Timeline:    tv.Meta,
		GroundTruth: gt,
		Trace:       res.Trace,
	}
	return &Database{core: db, report: rep}, rep, nil
}
