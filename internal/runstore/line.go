package runstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runio"
)

// lineWalksVersion is bumped when the line backend's record layout
// changes.
const lineWalksVersion = 1

func lineHeader(seed int64) runio.Header {
	return runio.Header{Format: runio.WalksFormat, Version: lineWalksVersion, Seed: seed}
}

// lineStore is the single-file backend: one runio.LineFile whose first
// entry is the manifest and whose remaining entries are walk records,
// in completion (not index) order. Raw records are kept in memory and
// decoded per lookup, so holding a store open costs the file's bytes —
// never the decoded dataset.
type lineStore struct {
	mu        sync.Mutex
	lf        *runio.LineFile
	path      string
	manifest  Manifest
	raw       map[int][]byte // walk index → raw record payload
	finalized bool
}

func createLine(path string, m Manifest) (Store, error) {
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("runstore: %s already exists", path)
	}
	m.Header = lineHeader(m.Seed)
	lf, entries, err := runio.OpenLineFile(path, m.Header)
	if err != nil {
		return nil, err
	}
	if len(entries) != 0 {
		lf.Close()
		return nil, fmt.Errorf("runstore: %s already holds records", path)
	}
	if err := lf.Append(m); err != nil {
		lf.Close()
		return nil, err
	}
	return &lineStore{lf: lf, path: path, manifest: m, raw: map[int][]byte{}}, nil
}

func openLine(path string) (Store, error) {
	lf, entries, err := runio.OpenLineFile(path, runio.Header{Format: runio.WalksFormat, Version: lineWalksVersion})
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		lf.Close()
		return nil, fmt.Errorf("runstore: %s has no manifest record", path)
	}
	st := &lineStore{lf: lf, path: path, raw: map[int][]byte{}}
	if err := json.Unmarshal(entries[0], &st.manifest); err != nil {
		lf.Close()
		return nil, fmt.Errorf("runstore: %s: decode manifest: %w", path, err)
	}
	for _, raw := range entries[1:] {
		var rec struct {
			Index int             `json:"index"`
			Walk  json.RawMessage `json:"walk"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			lf.Close()
			return nil, fmt.Errorf("runstore: %s: decode walk record: %w", path, err)
		}
		if rec.Walk == nil {
			// A trailing manifest record: Finalize's stamp with the
			// final walk count. Last one wins.
			if err := json.Unmarshal(raw, &st.manifest); err != nil {
				lf.Close()
				return nil, fmt.Errorf("runstore: %s: decode manifest: %w", path, err)
			}
			continue
		}
		st.raw[rec.Index] = raw // last record wins
	}
	st.finalized = st.manifest.Walks > 0 && st.manifest.Walks == len(st.raw)
	return st, nil
}

func (st *lineStore) Manifest() Manifest {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.manifest
	if !st.finalized {
		m.Walks = len(st.raw)
	}
	return m
}

func (st *lineStore) Walks() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.raw)
}

func (st *lineStore) Append(w *crawler.Walk) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finalized {
		return ErrFinalized
	}
	raw, err := encodeWalk(w)
	if err != nil {
		return err
	}
	if err := st.lf.Append(json.RawMessage(raw)); err != nil {
		return err
	}
	st.raw[w.Index] = raw
	return nil
}

func (st *lineStore) Get(idx int) (*crawler.Walk, error) {
	st.mu.Lock()
	raw, ok := st.raw[idx]
	st.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: index %d", ErrNoWalk, idx)
	}
	return decodeWalk(raw, idx)
}

// sortedIndices returns the stored walk indices in ascending order.
func (st *lineStore) sortedIndices() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.raw))
	for i := range st.raw {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (st *lineStore) Iter() Cursor {
	return &lineCursor{st: st, order: st.sortedIndices()}
}

func (st *lineStore) Stamp(m Manifest) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.manifest.stamp(m)
}

func (st *lineStore) Finalized() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.finalized
}

func (st *lineStore) Finalize() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finalized {
		return nil
	}
	st.manifest.Walks = len(st.raw)
	// Line files are append-only, so the final count lands as a
	// trailing manifest record (no "walk" field distinguishes it from a
	// walk record); openLine folds the last one in over the header's.
	if err := st.lf.Append(st.manifest); err != nil {
		return err
	}
	st.finalized = true
	return st.lf.Sync()
}

func (st *lineStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lf.Close()
}

type lineCursor struct {
	st    *lineStore
	order []int
	pos   int
}

func (c *lineCursor) Next() (*crawler.Walk, error) {
	if c.pos >= len(c.order) {
		return nil, io.EOF
	}
	idx := c.order[c.pos]
	c.pos++
	return c.st.Get(idx)
}

func (c *lineCursor) Close() error { return nil }
