package runstore

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"crumbcruncher/internal/crawler"
)

// Store layout: a directory holding
//
//	manifest.json     framed manifest document, atomically rewritten
//	segments.idx      line file: one record per sealed segment
//	seg-NNNNNN.jsonl  the active (unsealed) segment, a LineFile
//	seg-NNNNNN.sgz    a sealed segment: gzip of the framed jsonl image
//
// Walks append to the active segment — a plain LineFile, so the
// CRC framing, the fsync rule and the chaos fault hooks all apply —
// and every segWalks records the segment seals: its bytes are
// re-framed, gzipped and land via atomic rename, the jsonl is removed,
// and the index gains a {seg, indices} record. A crash
// between any two steps leaves either the jsonl (read on open, and
// recovered and re-adopted by the first write) or the sealed sgz —
// never neither. Opening a store writes nothing: every repair a crash
// calls for waits for the first Append or Finalize (openForWriteLocked).
// Reading is O(one segment) of memory: the index maps a walk to its
// segment, the segment gunzips, and every record's checksum verifies
// before a byte of it is decoded. A segment that fails verification is
// quarantined to "<seg>.corrupt" and surfaces a DamageError, matching
// the line-file damage contract; a segment the index lists whose file
// is gone reads as the same damage.

// segWalksDefault is how many walks a segment holds before sealing.
const segWalksDefault = 256

// segVersion is bumped when the segment layout changes.
const segVersion = 1

// manifestVersion is the manifest document's header version. The
// manifest keeps the WalksFormat header it has always carried, so
// every store written since segment stores began still opens.
const manifestVersion = 1

func manifestHeader(seed int64) Header {
	return Header{Format: WalksFormat, Version: manifestVersion, Seed: seed}
}

func segHeader(seed int64) Header {
	return Header{Format: SegmentFormat, Version: segVersion, Seed: seed}
}

func segIndexHeader(seed int64) Header {
	return Header{Format: segIdxFormat, Version: segVersion, Seed: seed}
}

// segIndexEntry is one sealed segment in segments.idx. Entries written
// before walks had their own clocks also carry a "clock" key, which
// decoding ignores.
type segIndexEntry struct {
	Seg     int   `json:"seg"`
	Indices []int `json:"indices"`
}

// segmentStore is the store: sharded, compressed walk segments.
type segmentStore struct {
	mu       sync.Mutex
	dir      string
	manifest Manifest
	segWalks int

	// index is segments.idx, open for appends from the store's first
	// write (at Create, or the first Append or Finalize after Open) to
	// Close.
	index *LineFile
	// leftover lists the seg-*.jsonl files Open found, by ascending
	// segment number: the first write removes those the index lists as
	// sealed and adopts the others as line files.
	leftover []int

	// walkSeg maps every known walk index to its segment number.
	walkSeg map[int]int
	// sealed maps segment number → its walk indices, in append order —
	// the order of the segment's records, so record k is walk
	// sealed[seg][k].
	sealed map[int][]int
	// unsealed holds the raw records of every segment not yet sealed —
	// the active one, and any Open found that the first write has not
	// adopted yet — by segment number, then walk index.
	unsealed map[int]map[int][]byte

	// active is the open, unsealed segment (nil until the first append
	// after open or a seal).
	active    *LineFile
	activeSeg int
	activeIdx []int // indices in append order
	nextSeg   int
	finalized bool
	// cache holds the most recently decoded sealed segments. Two slots:
	// a parallel crawl interleaves walk indices across at most a
	// parallelism-sized window, so an index-order scan touches at most
	// two adjacent segments at a time.
	cache      map[int]map[int][]byte
	cacheOrder []int // LRU, most recent last
	// damaged holds the error of every sealed segment quarantined since
	// open, so later reads of its walks fail the same way instead of
	// finding the file gone.
	damaged map[int]error
}

// segCacheSlots bounds the sealed-segment cache.
const segCacheSlots = 2

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }
func indexPath(dir string) string    { return filepath.Join(dir, "segments.idx") }
func segJSONLPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.jsonl", n))
}
func segSealedPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.sgz", n))
}

func writeManifest(dir string, m Manifest) error {
	return WriteFileAtomic(manifestPath(dir), func(w io.Writer) error {
		return WriteDocument(w, m)
	})
}

// ReadManifest reads the manifest of the store at dir without opening
// the store, so nothing on disk changes. Its Walks is 0 for a store
// that has not been finalized. A path with no manifest returns an error
// matching fs.ErrNotExist.
func ReadManifest(dir string) (Manifest, error) {
	f, err := os.Open(manifestPath(dir))
	if err != nil {
		return Manifest{}, fmt.Errorf("runstore: %s: %w", dir, err)
	}
	defer f.Close()
	var m Manifest
	if err := readDocument(f, manifestHeader(0), &m); err != nil {
		return Manifest{}, fmt.Errorf("runstore: %s: manifest: %w", dir, err)
	}
	return m, nil
}

func createSegment(path string, m Manifest) (Store, error) {
	if _, err := os.Stat(manifestPath(path)); err == nil {
		return nil, fmt.Errorf("runstore: %s already holds a run", path)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: create %s: %w", path, err)
	}
	m.Header = manifestHeader(m.Seed)
	if err := writeManifest(path, m); err != nil {
		return nil, err
	}
	idx, entries, err := OpenLineFile(indexPath(path), segIndexHeader(m.Seed))
	if err != nil {
		return nil, err
	}
	if len(entries) != 0 {
		idx.Close()
		return nil, fmt.Errorf("runstore: %s: index already holds segments", path)
	}
	return &segmentStore{
		dir:      path,
		manifest: m,
		segWalks: segWalksDefault,
		index:    idx,
		walkSeg:  map[int]int{},
		sealed:   map[int][]int{},
		unsealed: map[int]map[int][]byte{},
	}, nil
}

// openSegment opens the store at dir with plain reads: nothing on disk
// changes, except that a corrupt index or unsealed segment is
// quarantined as OpenLineFile would. A torn tail is left in place and
// out of the walks the store serves.
func openSegment(dir string) (Store, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	entries, err := readLineFile(indexPath(dir), segIndexHeader(m.Seed))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	st := &segmentStore{
		dir:      dir,
		manifest: m,
		segWalks: segWalksDefault,
		walkSeg:  map[int]int{},
		sealed:   map[int][]int{},
		unsealed: map[int]map[int][]byte{},
	}
	for _, raw := range entries {
		var e segIndexEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("runstore: %s: decode index record: %w", dir, err)
		}
		st.sealed[e.Seg] = e.Indices
		for _, wi := range e.Indices {
			st.walkSeg[wi] = e.Seg
		}
		if e.Seg >= st.nextSeg {
			st.nextSeg = e.Seg + 1
		}
	}
	// Put the walks of any unsealed segment a crash left behind on the
	// map. A jsonl whose segment the index lists as sealed is what a
	// crash between rename and remove leaves; the sgz is authoritative.
	leftover, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err == nil {
		sort.Strings(leftover)
		for _, p := range leftover {
			var n int
			if _, serr := fmt.Sscanf(filepath.Base(p), "seg-%06d.jsonl", &n); serr != nil {
				continue
			}
			st.leftover = append(st.leftover, n)
			if _, isSealed := st.sealed[n]; isSealed {
				continue
			}
			entries, err := readLineFile(p, segHeader(m.Seed))
			if err != nil {
				return nil, err
			}
			if _, err := st.addUnsealed(n, entries); err != nil {
				return nil, err
			}
		}
	}
	st.finalized = m.Walks > 0 && m.Walks == len(st.walkSeg)
	return st, nil
}

// openForWriteLocked makes the repairs opening the store left to the
// first write, in the order an open once made them: it opens the
// index, removes the jsonl of every leftover segment the index lists as
// sealed, and adopts the others as line files (torn tails truncated),
// sealing each but the newest. Callers hold mu.
func (st *segmentStore) openForWriteLocked() error {
	if st.index == nil {
		idx, _, err := OpenLineFile(indexPath(st.dir), segIndexHeader(st.manifest.Seed))
		if err != nil {
			return err
		}
		st.index = idx
	}
	for len(st.leftover) > 0 {
		n := st.leftover[0]
		if _, isSealed := st.sealed[n]; isSealed {
			os.Remove(segJSONLPath(st.dir, n))
		} else if err := st.adoptUnsealed(n); err != nil {
			return err
		}
		st.leftover = st.leftover[1:]
	}
	return nil
}

// adoptUnsealed reopens an unsealed segment file for continued appends.
func (st *segmentStore) adoptUnsealed(n int) error {
	lf, entries, err := OpenLineFile(segJSONLPath(st.dir, n), segHeader(st.manifest.Seed))
	if err != nil {
		return err
	}
	if st.active != nil {
		// Two unsealed segments can only mean repeated crashes mid-seal;
		// keep appending to the newest, seal the older one as-is first.
		if err := st.sealActiveLocked(); err != nil {
			lf.Close()
			return err
		}
	}
	indices, err := st.addUnsealed(n, entries)
	if err != nil {
		lf.Close()
		return err
	}
	st.active, st.activeSeg, st.activeIdx = lf, n, indices
	return nil
}

// addUnsealed puts the records of unsealed segment n on the maps and
// returns their walk indices in record order.
func (st *segmentStore) addUnsealed(n int, entries [][]byte) ([]int, error) {
	walks := make(map[int][]byte, len(entries))
	indices := make([]int, 0, len(entries))
	for _, raw := range entries {
		var rec struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("runstore: %s: decode walk record: %w", st.dir, err)
		}
		walks[rec.Index] = raw
		st.walkSeg[rec.Index] = n
		indices = append(indices, rec.Index)
	}
	st.unsealed[n] = walks
	if n >= st.nextSeg {
		st.nextSeg = n + 1
	}
	return indices, nil
}

func (st *segmentStore) Manifest() Manifest {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.manifest
	if !st.finalized {
		m.Walks = len(st.walkSeg)
	}
	return m
}

func (st *segmentStore) Walks() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.walkSeg)
}

func (st *segmentStore) Append(w *crawler.Walk) error {
	// Encoding is a pure function of the walk, so concurrent appends
	// encode in parallel and hold the lock only to write.
	raw, err := encodeWalk(w)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finalized {
		return ErrFinalized
	}
	if err := st.openForWriteLocked(); err != nil {
		return err
	}
	if st.active == nil {
		lf, entries, err := OpenLineFile(segJSONLPath(st.dir, st.nextSeg), segHeader(st.manifest.Seed))
		if err != nil {
			return err
		}
		if len(entries) != 0 {
			lf.Close()
			return fmt.Errorf("runstore: %s: segment %d not empty", st.dir, st.nextSeg)
		}
		st.active, st.activeSeg, st.activeIdx = lf, st.nextSeg, nil
		st.unsealed[st.nextSeg] = map[int][]byte{}
		st.nextSeg++
	}
	if err := st.active.appendRaw(raw); err != nil {
		return err
	}
	st.activeIdx = append(st.activeIdx, w.Index)
	st.unsealed[st.activeSeg][w.Index] = raw
	st.walkSeg[w.Index] = st.activeSeg
	if len(st.activeIdx) >= st.segWalks {
		return st.sealActiveLocked()
	}
	return nil
}

// sealActiveLocked compresses the active segment into its sgz, records
// it in the index, and removes the jsonl. Callers hold mu.
func (st *segmentStore) sealActiveLocked() error {
	if st.active == nil {
		return nil
	}
	jsonl := segJSONLPath(st.dir, st.activeSeg)
	if err := st.active.Close(); err != nil {
		return err
	}
	// Stream the closed segment through gzip rather than reading it
	// whole: a full segment is megabytes of record JSON.
	src, err := os.Open(jsonl)
	if err != nil {
		return fmt.Errorf("runstore: seal segment %d: %w", st.activeSeg, err)
	}
	err = WriteFileAtomic(segSealedPath(st.dir, st.activeSeg), func(w io.Writer) error {
		gz := gzip.NewWriter(w)
		if _, werr := io.Copy(gz, src); werr != nil {
			return fmt.Errorf("runstore: seal segment %d: %w", st.activeSeg, werr)
		}
		return gz.Close()
	})
	src.Close()
	if err != nil {
		return err
	}
	if err := st.index.Append(segIndexEntry{Seg: st.activeSeg, Indices: st.activeIdx}); err != nil {
		return err
	}
	st.sealed[st.activeSeg] = st.activeIdx
	delete(st.unsealed, st.activeSeg)
	os.Remove(jsonl)
	st.active = nil
	st.activeIdx = nil
	return nil
}

// loadSealedLocked gunzips and verifies one sealed segment, returning
// its raw payloads by walk index. Damage quarantines the segment file
// and surfaces a DamageError wrapping ErrCorrupt. Callers hold mu.
func (st *segmentStore) loadSealedLocked(n int) (map[int][]byte, error) {
	if walks, ok := st.cache[n]; ok {
		for i, s := range st.cacheOrder {
			if s == n {
				st.cacheOrder = append(append(st.cacheOrder[:i:i], st.cacheOrder[i+1:]...), n)
				break
			}
		}
		return walks, nil
	}
	if err := st.damaged[n]; err != nil {
		return nil, err
	}
	path := segSealedPath(st.dir, n)
	damaged := func(quarantined string) (map[int][]byte, error) {
		derr := newCorruptError(SegmentFormat, path, quarantined)
		if st.damaged == nil {
			st.damaged = map[int]error{}
		}
		st.damaged[n] = derr
		return nil, derr
	}
	corrupt := func() (map[int][]byte, error) {
		q, _ := quarantine(path) // "" when the move failed
		return damaged(q)
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		// The index lists the segment but its file is gone, most likely
		// quarantined by an earlier read: its walks are lost, which is
		// damage, not an I/O error.
		q := path + ".corrupt"
		if _, serr := os.Stat(q); serr != nil {
			q = ""
		}
		return damaged(q)
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: segment %d: %w", n, err)
	}
	defer f.Close()
	size, err := inflatedSize(f)
	if err != nil {
		return nil, fmt.Errorf("runstore: segment %d: %w", n, err)
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		return corrupt()
	}
	defer gz.Close()
	// Reading to EOF runs gzip's CRC-32 and length checks against the
	// trailer, so a trailer that misstates the size still fails here.
	data, err := readSized(gz, size)
	if err != nil {
		return corrupt()
	}
	entries, err := Records(data, segHeader(st.manifest.Seed))
	if err != nil {
		// A sealed segment landed via atomic rename, so even a "torn"
		// classification means the bytes were damaged afterwards.
		var de *DamageError
		if errors.As(err, &de) {
			return corrupt()
		}
		return nil, err
	}
	// The index recorded the segment's walks in append order, which is
	// its record order, so no record is parsed here: Get parses each one
	// exactly once, and checks that it holds the walk asked for.
	indices := st.sealed[n]
	if len(entries) != len(indices) {
		return corrupt()
	}
	walks := make(map[int][]byte, len(entries))
	for k, raw := range entries {
		walks[indices[k]] = raw
	}
	if st.cache == nil {
		st.cache = map[int]map[int][]byte{}
	}
	if len(st.cacheOrder) >= segCacheSlots {
		evict := st.cacheOrder[0]
		st.cacheOrder = st.cacheOrder[1:]
		delete(st.cache, evict)
	}
	st.cache[n] = walks
	st.cacheOrder = append(st.cacheOrder, n)
	return walks, nil
}

// Verify reads back every record of st that opening it left unchecked
// — the sealed segments; the index and an unsealed segment verify on
// open — against its checksums, quarantining a damaged segment as Get
// does. A store about to be resumed is verified first, so damage
// surfaces before the crawl trusts its walks. On damage
// Verify closes st and moves the whole store aside to "<path>.corrupt"
// (replacing an earlier quarantine there), so its path is free for a
// fresh start, and returns the DamageError, which names where it went.
func Verify(st Store) error {
	seg, ok := st.(*segmentStore)
	if !ok {
		return nil
	}
	seg.mu.Lock()
	segs := make([]int, 0, len(seg.sealed))
	for n := range seg.sealed {
		segs = append(segs, n)
	}
	sort.Ints(segs)
	var err error
	for _, n := range segs {
		if _, err = seg.loadSealedLocked(n); err != nil {
			break
		}
	}
	seg.mu.Unlock()
	if err == nil {
		return nil
	}
	st.Close()
	var de *DamageError
	if errors.As(err, &de) {
		if q, qerr := quarantine(seg.dir); qerr == nil {
			de.Quarantined = q
		}
	}
	return err
}

// maxInflateRatio bounds how many bytes deflate can expand one
// compressed byte into (a 258-byte match per two bits, ~1032:1).
const maxInflateRatio = 1032

// inflatedSize reads the uncompressed size a sealed segment's gzip
// trailer records (ISIZE, the size modulo 2^32), capped at what f's
// compressed size can inflate to, so a damaged trailer never sizes a
// buffer past what the stream could hold.
func inflatedSize(f *os.File) (int, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var trailer [4]byte
	if fi.Size() < int64(len(trailer)) {
		return 0, nil
	}
	if _, err := f.ReadAt(trailer[:], fi.Size()-int64(len(trailer))); err != nil {
		return 0, err
	}
	return int(min(int64(binary.LittleEndian.Uint32(trailer[:])), fi.Size()*maxInflateRatio)), nil
}

func (st *segmentStore) Get(idx int) (*crawler.Walk, error) {
	raw, err := st.rawRecord(idx)
	if err != nil {
		return nil, err
	}
	return decodeWalk(raw, idx)
}

// rawRecord returns walk idx's raw record, loading its sealed segment
// if need be. It holds mu only while it looks; the returned bytes are
// never written again, so the caller decodes them without the lock.
func (st *segmentStore) rawRecord(idx int) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	seg, ok := st.walkSeg[idx]
	if !ok {
		return nil, fmt.Errorf("%w: index %d", ErrNoWalk, idx)
	}
	if walks, ok := st.unsealed[seg]; ok {
		return walks[idx], nil
	}
	walks, err := st.loadSealedLocked(seg)
	if err != nil {
		return nil, err
	}
	raw, ok := walks[idx]
	if !ok {
		return nil, fmt.Errorf("%w: index %d missing from segment %d", ErrNoWalk, idx, seg)
	}
	return raw, nil
}

func (st *segmentStore) sortedIndices() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.walkSeg))
	for i := range st.walkSeg {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (st *segmentStore) Iter() Cursor {
	return &segmentCursor{st: st, order: st.sortedIndices()}
}

func (st *segmentStore) Stamp(m Manifest) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.manifest.stamp(m)
}

func (st *segmentStore) Finalized() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.finalized
}

func (st *segmentStore) Finalize() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finalized {
		return nil
	}
	if err := st.openForWriteLocked(); err != nil {
		return err
	}
	if err := st.sealActiveLocked(); err != nil {
		return err
	}
	if err := st.index.Sync(); err != nil {
		return err
	}
	st.manifest.Walks = len(st.walkSeg)
	if err := writeManifest(st.dir, st.manifest); err != nil {
		return err
	}
	st.finalized = true
	return nil
}

func (st *segmentStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	if st.active != nil {
		err = st.active.Close()
		st.active = nil
	}
	if cerr := st.index.Close(); err == nil {
		err = cerr
	}
	return err
}

// segmentCursor iterates in walk-index order through Get, reusing the
// store's two-slot segment cache; consecutive walks usually share a
// segment, so a full scan gunzips each segment once.
type segmentCursor struct {
	st    *segmentStore
	order []int
	pos   int
}

func (c *segmentCursor) Next() (*crawler.Walk, error) {
	if c.pos >= len(c.order) {
		return nil, io.EOF
	}
	idx := c.order[c.pos]
	c.pos++
	return c.st.Get(idx)
}

func (c *segmentCursor) Close() error { return nil }
