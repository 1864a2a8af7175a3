package store

import (
	"encoding/json"

	"repro/pkg/domain"
)

// Artifact is the one envelope in which the program caches a database
// for itself — the build's stage artifacts and ingest's per-document
// artifacts alike: the database as bare FormatVersion 2 (EncodeV2 with
// no optional sections; a mid-pipeline database is still being
// mutated, so postings and fragments would be stale) next to metadata
// of type T, marshalled as one JSON object. Either side may be the
// live one: a stage's own output holds the database, a cached artifact
// holds its bytes, and both directions memoize, so a value shared by
// two stages is encoded and decoded at most once. An Artifact is not
// safe for concurrent use.
type Artifact[T any] struct {
	// DB is the database's bare FormatVersion 2 encoding; nil until
	// Marshal encodes a live database.
	DB   []byte `json:"db"`
	Meta T      `json:"meta"`
	db   *domain.Database
}

// NewArtifact wraps a live database and its metadata.
func NewArtifact[T any](db *domain.Database, meta T) *Artifact[T] {
	return &Artifact[T]{Meta: meta, db: db}
}

// UnmarshalArtifact revives a marshalled artifact without decoding its
// database; Database decodes it on first use.
func UnmarshalArtifact[T any](b []byte) (*Artifact[T], error) {
	a := new(Artifact[T])
	if err := json.Unmarshal(b, a); err != nil {
		return nil, err
	}
	return a, nil
}

// Database returns the artifact's database, decoding it (memoized) when
// the artifact was unmarshalled. Only FormatVersion 2 bytes are
// accepted; anything else — a truncated, bit-flipped or foreign
// payload — is an error.
func (a *Artifact[T]) Database() (*domain.Database, error) {
	if a.db == nil {
		sv, err := openV2(a.DB)
		if err != nil {
			return nil, err
		}
		if a.db, err = sv.Database(); err != nil {
			return nil, err
		}
	}
	return a.db, nil
}

// Marshal encodes the database (memoized) and serializes the envelope.
// Encoding is deterministic, so equal artifacts marshal to equal bytes.
func (a *Artifact[T]) Marshal() ([]byte, error) {
	if a.DB == nil {
		raw, err := EncodeV2(a.db, V2Options{})
		if err != nil {
			return nil, err
		}
		a.DB = raw
	}
	return json.Marshal(a)
}
