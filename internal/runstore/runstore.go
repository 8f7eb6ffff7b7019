// Package runstore stores recorded crawls and owns their on-disk format
// (codec.go: framed line files, documents and atomic writes). A Store
// holds one crawl — a manifest (seed, config, provenance) plus the
// walk records: append walks as they complete, fetch a single walk by
// index, or iterate the whole run in walk order through a cursor, all
// without ever materialising the complete dataset in memory.
//
// Every store is a segment directory (DESIGN.md §13): fixed-size walk
// segments, gzip-compressed as they seal, with a sidecar index for
// random access and an atomically rewritten manifest. Memory is
// O(one segment), whatever the run's size. Create makes one at any path;
// the ".crumbs" suffix the tools use is a convention, not a switch.
//
// A store is also a crawl's walk log: the crawl appends each walk as it
// finishes, and a crawl resumed over an unfinalized store skips the
// walks it already holds. A walk depends only on the configuration and
// its index, so nothing else needs restoring.
//
// The package depends only on crawler and the standard library;
// analysis layers sit above it.
package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"crumbcruncher/internal/crawler"
)

// Manifest identifies a stored run: the versioned artifact header, the
// crawler roster, the walk count (0 until Finalize on a store still
// being written), and the raw configuration and provenance documents.
// Config stays a raw JSON message so this package does not depend on
// the core config type; callers decode it into their own Config.
type Manifest struct {
	Header
	Crawlers   []string        `json:"crawlers,omitempty"`
	Walks      int             `json:"walks"`
	Config     json.RawMessage `json:"config,omitempty"`
	Provenance json.RawMessage `json:"provenance,omitempty"`
}

// Store is one recorded crawl. The segment directory is its only
// implementation; tests and benchmarks wrap or fake it through this
// interface.
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
	// ErrCorrupt. Get is safe for concurrent use: it holds the
	// store lock only to find (and, for a sealed segment, load) the raw
	// record and copy it out, and decodes the copy after unlocking, so
	// concurrent Gets decode in parallel.
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

// Create makes a new, empty store at path — a segment directory,
// whatever the path's suffix — with the given manifest. The manifest's
// Walks field is ignored (stamped at Finalize). Creating over an
// existing run fails rather than truncating it, and so does creating
// over a regular file.
func Create(path string, m Manifest) (Store, error) {
	m.Walks = 0
	return createSegment(path, m)
}

// Open opens the existing store at path, reading it without writing: a
// torn tail a crash left is left out of the walks the store serves, and
// the repairs a crash calls for wait for the store's first Append or
// Finalize. Only damage moves anything: a corrupt index or unsealed
// segment is quarantined, as every reader does. A path that is not a
// directory — a line-file store written before every store was a
// segment directory, say — is refused as a caller mistake: it is left
// where it is, unread and unchanged.
func Open(path string) (Store, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: open %s: %w", path, err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("runstore: %s is not a run-store directory", path)
	}
	return openSegment(path)
}

// walkRecord is the on-disk form of one walk.
// Records written before walks had their own clocks also carry a
// "clock" key (the crawl-wide virtual instant the walk finished at);
// readers skip it.
type walkRecord struct {
	Index int           `json:"index"`
	Walk  *crawler.Walk `json:"walk"`
}

// encodeWalk encodes w's record: by hand (walkcodec.go), or through
// json.Marshal when the record holds a value the hand encoder leaves to
// it, so that the error is encoding/json's. The bytes are json.Marshal's
// either way.
func encodeWalk(w *crawler.Walk) ([]byte, error) {
	rec := walkRecord{Index: w.Index, Walk: w}
	scratch := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(scratch)
	raw, ok := encodeWalkRecord((*scratch)[:0], rec)
	*scratch = raw[:0]
	if ok {
		return bytes.Clone(raw), nil
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("runstore: encode walk %d: %w", w.Index, err)
	}
	return raw, nil
}

// encodeBufs holds encoding buffers: a record is encoded into one and
// copied out at its exact size, as json.Marshal does.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// stamp copies the documents Stamp replaces from src into m.
func (m *Manifest) stamp(src Manifest) {
	m.Crawlers, m.Config, m.Provenance = src.Crawlers, src.Config, src.Provenance
}

// decodeWalk decodes the raw record of walk idx with d, failing with
// ErrCorrupt if the record holds another walk. The fast decoder
// (walkcodec.go) takes every record encodeWalk writes; json.Unmarshal
// takes any other.
func decodeWalk(d *walkDecoder, raw []byte, idx int) (*crawler.Walk, error) {
	rec, ok := d.record(raw)
	if !ok {
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("runstore: decode walk record: %w", err)
		}
	}
	if rec.Index != idx {
		return nil, fmt.Errorf("runstore: %w: record for walk %d holds walk %d", ErrCorrupt, idx, rec.Index)
	}
	if rec.Walk == nil {
		return nil, fmt.Errorf("runstore: walk record %d has no walk", rec.Index)
	}
	return rec.Walk, nil
}

// readState is what one Get reads with: its copy of the record and the
// decoder with its scratch slices, pooled in readStates across Gets.
type readState struct {
	rec []byte
	dec walkDecoder
}

var readStates = sync.Pool{New: func() any { return new(readState) }}

// release returns rs to readStates. The decoder clears every scratch
// slice as it copies the slice out, so what goes back holds no string or
// pointer of the walk it decoded, only bytes of its record.
func (rs *readState) release() {
	rs.rec = rs.rec[:0]
	rs.dec.buf = nil
	readStates.Put(rs)
}
