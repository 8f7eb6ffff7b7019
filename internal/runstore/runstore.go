// Package runstore is the pluggable storage API in front of
// internal/runio for recorded crawls. A Store holds one crawl — a
// manifest (seed, config, provenance) plus the walk records — behind a
// backend-neutral interface: append walks as they complete, fetch a
// single walk by index, or iterate the whole run in walk order through
// a cursor, all without ever materialising the complete dataset in
// memory.
//
// Two backends ship (DESIGN.md §13):
//
//   - line: a single CRC-framed JSONL file (a runio.LineFile). Simple
//     and greppable. Random access decodes from an in-memory raw-record
//     table, so memory is O(compressed file), not O(decoded dataset).
//   - segment: a directory of fixed-size walk segments, gzip-compressed
//     as they seal, with a sidecar index for random access and an
//     atomically rewritten manifest. Memory is O(one segment); this is
//     the backend for 100k-walk datasets.
//
// A store is also a crawl's walk log: the crawl appends each walk as it
// finishes, and a crawl resumed over an unfinalized store skips the
// walks it already holds. A walk depends only on the configuration and
// its index, so nothing else needs restoring.
//
// The package depends only on crawler and runio; analysis layers sit
// above it.
package runstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runio"
)

// Manifest identifies a stored run: the versioned artifact header, the
// crawler roster, the walk count (0 until Finalize on a store still
// being written), and the raw configuration and provenance documents.
// Config stays a raw JSON message so this package does not depend on
// the core config type; callers decode it into their own Config.
type Manifest struct {
	runio.Header
	Crawlers   []string        `json:"crawlers,omitempty"`
	Walks      int             `json:"walks"`
	Config     json.RawMessage `json:"config,omitempty"`
	Provenance json.RawMessage `json:"provenance,omitempty"`
}

// Store is one recorded crawl behind a pluggable backend.
type Store interface {
	// Manifest returns the run's identity. Walks is authoritative only
	// after Finalize; on a store being appended to it reports the count
	// so far.
	Manifest() Manifest
	// Walks returns the number of walk records currently readable.
	Walks() int
	// Append records one completed walk. Walks may arrive out of index
	// order (parallel crawls finish out of order); readers always see
	// index order.
	Append(w *crawler.Walk) error
	// Get returns the walk with the given index, decoding only what
	// that lookup needs. A missing index returns ErrNoWalk, and a record
	// that holds another walk than the one asked for an error wrapping
	// runio.ErrCorrupt. Get is safe for concurrent use: it holds the
	// store lock only to find (and, for a sealed segment, load) the raw
	// record and decodes it after unlocking, so concurrent Gets decode
	// in parallel.
	Get(idx int) (*crawler.Walk, error)
	// Iter returns a cursor over all walks in ascending index order.
	Iter() Cursor
	// Stamp replaces the crawler roster, configuration and provenance
	// the manifest carries; its header and walk count stay the store's
	// own. The next Finalize persists them.
	Stamp(m Manifest)
	// Finalize seals the store: flushes pending segments, stamps the
	// final walk count into the manifest, and fsyncs. A finalized store
	// remains readable; further Appends fail.
	Finalize() error
	// Finalized reports whether the store has been sealed.
	Finalized() bool
	// Close releases the store's file handles. Closing without
	// Finalize leaves a resumable (crash-equivalent) store on disk.
	Close() error
}

// Cursor iterates a store's walks in ascending index order. Next
// returns io.EOF after the last walk.
type Cursor interface {
	Next() (*crawler.Walk, error)
	Close() error
}

// ErrNoWalk is returned by Get for an index the store has no record of.
var ErrNoWalk = fmt.Errorf("runstore: no such walk")

// ErrFinalized is returned by Append on a store that has been sealed.
var ErrFinalized = fmt.Errorf("runstore: store is finalized")

// Backend names a storage backend.
type Backend string

const (
	// BackendLine is the single CRC-framed line-file backend.
	BackendLine Backend = "line"
	// BackendSegment is the sharded, compressed segment-file backend.
	BackendSegment Backend = "segment"
)

// SegmentSuffix marks a path as a segment-backend directory. DetectBackend
// picks the segment backend for any path ending in it.
const SegmentSuffix = ".crumbs"

// DetectBackend picks the backend a fresh store at path should use:
// segment for directory-style paths (trailing separator or the
// SegmentSuffix), line otherwise.
func DetectBackend(path string) Backend {
	if strings.HasSuffix(path, "/") || strings.HasSuffix(path, SegmentSuffix) {
		return BackendSegment
	}
	return BackendLine
}

// Create makes a new, empty store at path with the given backend and
// manifest. The manifest's Walks field is ignored (stamped at
// Finalize). Creating over an existing run fails rather than
// truncating it.
func Create(path string, backend Backend, m Manifest) (Store, error) {
	m.Walks = 0
	switch backend {
	case BackendLine:
		return createLine(path, m)
	case BackendSegment:
		return createSegment(path, m)
	default:
		return nil, fmt.Errorf("runstore: unknown backend %q", backend)
	}
}

// Open opens an existing store at path: a directory is a segment
// store, anything else a line store.
func Open(path string) (Store, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: open %s: %w", path, err)
	}
	if fi.IsDir() {
		return openSegment(path)
	}
	return openLine(path)
}

// Copy streams every walk of src into dst and finalizes dst. It is the
// cross-backend migration path (line → segment and back); the copied
// walks are byte-identical records, so analyses over the two stores
// agree exactly.
func Copy(dst Store, src Store) error {
	cur := src.Iter()
	defer cur.Close()
	for {
		w, err := cur.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		if err := dst.Append(w); err != nil {
			return err
		}
	}
	return dst.Finalize()
}

// walkRecord is the on-disk form of one walk, shared by both backends.
// Records written before walks had their own clocks also carry a
// "clock" key (the crawl-wide virtual instant the walk finished at);
// readers skip it.
type walkRecord struct {
	Index int           `json:"index"`
	Walk  *crawler.Walk `json:"walk"`
}

// encodeWalk encodes w's record.
func encodeWalk(w *crawler.Walk) ([]byte, error) {
	raw, err := json.Marshal(walkRecord{Index: w.Index, Walk: w})
	if err != nil {
		return nil, fmt.Errorf("runstore: encode walk %d: %w", w.Index, err)
	}
	return raw, nil
}

// stamp copies the documents Stamp replaces from src into m.
func (m *Manifest) stamp(src Manifest) {
	m.Crawlers, m.Config, m.Provenance = src.Crawlers, src.Config, src.Provenance
}

// decodeWalk decodes the raw record of walk idx, failing with
// runio.ErrCorrupt if the record holds another walk. The fast decoder
// (walkcodec.go) takes every record encodeWalk writes; json.Unmarshal
// takes any other.
func decodeWalk(raw []byte, idx int) (*crawler.Walk, error) {
	rec, ok := decodeWalkRecord(raw)
	if !ok {
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("runstore: decode walk record: %w", err)
		}
	}
	if rec.Index != idx {
		return nil, fmt.Errorf("runstore: %w: record for walk %d holds walk %d", runio.ErrCorrupt, idx, rec.Index)
	}
	if rec.Walk == nil {
		return nil, fmt.Errorf("runstore: walk record %d has no walk", rec.Index)
	}
	return rec.Walk, nil
}
