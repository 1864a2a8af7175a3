package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"

	"repro/pkg/domain"
)

// Reader is the unified read handle over every serialization backend:
// FormatVersion 1 JSON, FormatVersion 2 in the heap, and FormatVersion
// 2 mmap-backed. Open (paths) and OpenBytes (buffers) are the only
// entry points; they sniff gzip and the format internally, so callers
// never dispatch on file contents themselves.
//
// A Reader whose Format is FormatVersion2 is always a *StoreV2 and may
// be asserted to reach the zero-decode accessors (IndexLists,
// Fragments, the lazy per-record decoders). Close releases the backing
// resources — for an mmap-backed reader the final release unmaps the
// file, after which nothing materialized from it may be touched; the
// serving layer retains the Region across snapshot swaps for exactly
// this reason.
type Reader interface {
	// Database materializes (and memoizes) the full database.
	Database() (*domain.Database, error)
	// Format reports the serialization format: FormatVersion (1) or
	// FormatVersion2 (2).
	Format() int
	// Mapped reports whether reads go through a file mapping.
	Mapped() bool
	// Region returns the refcounted byte range backing the reader, nil
	// for format-1 readers (a materialized v1 database owns its memory).
	Region() *Region
	// Close releases the opener's reference; idempotent.
	Close() error
}

type openConfig struct {
	heap bool // read into the heap even where a mapping is possible
}

// OpenOption configures Open and OpenBytes.
type OpenOption func(*openConfig)

// WithMmap sets the mapping decision: WithMmap(true), the default, maps
// exactly when it can — uncompressed FormatVersion 2 files on platforms
// with mmap — and reads everything else into the heap; WithMmap(false)
// always reads into the heap.
func WithMmap(on bool) OpenOption {
	return func(c *openConfig) { c.heap = !on }
}

// Open opens a database file behind the unified Reader interface,
// sniffing gzip compression and the serialization format. Uncompressed
// FormatVersion 2 files are mmap'ed (read-only, shared) where the
// platform supports it, so the page cache — not the Go heap — holds
// the corpus and a file larger than RAM stays serveable; mapped
// regions get the madvise(MADV_RANDOM) hint. Everything else is read
// into the heap. WithMmap(false) reads every file into the heap.
func Open(path string, opts ...OpenOption) (Reader, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.heap || !mmapSupported {
		return openFile(path)
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor

	magic := make([]byte, len(v2Magic))
	n, err := io.ReadFull(f, magic)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if !isV2(magic[:n]) {
		// Not a v2 file: there is nothing to map (a v1 database is
		// materialized structs, not served bytes).
		return openFile(path)
	}

	data, munmap, err := mmapFile(f)
	if err != nil {
		return openFile(path)
	}
	sv, err := openV2(data)
	if err != nil {
		munmap(data)
		return nil, err
	}
	sv.region = newMappedRegion(data, munmap)
	// Point lookups hop between sections, so readahead would drag in
	// pages the workload never touches. Advisory only: a kernel refusing
	// the hint costs readahead, not correctness.
	_ = madviseRandom(data)
	return sv, nil
}

// openFile reads the whole file into the heap and opens it there.
func openFile(path string) (Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return OpenBytes(data)
}

// OpenBytes opens an in-memory database buffer behind the Reader
// interface, sniffing gzip compression and the serialization format
// exactly like Open. The caller must not mutate data while the reader
// (or anything materialized from it) is in use.
func OpenBytes(data []byte) (Reader, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		data, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if isV2(data) {
		return openV2(data)
	}
	db, err := decode(data)
	if err != nil {
		return nil, err
	}
	return &v1Reader{db: db}, nil
}

// v1Reader adapts a materialized FormatVersion 1 database to the Reader
// interface. There is no backing byte range to manage: the decoded
// structs own their memory.
type v1Reader struct{ db *domain.Database }

func (r *v1Reader) Database() (*domain.Database, error) { return r.db, nil }
func (r *v1Reader) Format() int                         { return FormatVersion }
func (r *v1Reader) Mapped() bool                        { return false }
func (r *v1Reader) Region() *Region                     { return nil }
func (r *v1Reader) Close() error                        { return nil }
