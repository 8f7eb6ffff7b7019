package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runstore"
)

// countingStore counts, from outside the program, the reads made
// through a run store: walks decoded by cursor passes and walks fetched
// one at a time.
type countingStore struct {
	runstore.Store
	decoded, gets atomic.Int64
}

func (s *countingStore) Iter() runstore.Cursor {
	return &countingCursor{Cursor: s.Store.Iter(), s: s}
}

func (s *countingStore) Get(idx int) (*crawler.Walk, error) {
	s.gets.Add(1)
	return s.Store.Get(idx)
}

type countingCursor struct {
	runstore.Cursor
	s *countingStore
}

func (c *countingCursor) Next() (*crawler.Walk, error) {
	w, err := c.Cursor.Next()
	if err == nil {
		c.s.decoded.Add(1)
	}
	return w, err
}

// report records the walks decoded through the store so far.
func (s *countingStore) report(tr *tracer) {
	reportDecodes(tr, s.decoded.Load()+s.gets.Load(), int64(s.Walks()))
}

// reportDecodes records walk decodes and decodes per stored walk: 1.0 is
// a single pass, and each replay of the store adds one.
func reportDecodes(tr *tracer, decoded, stored int64) {
	tr.set("runstore.walks_decoded", float64(decoded))
	tr.set("runstore.decode_amplification", ratio(decoded, stored))
}

// forEachWalk drains a cursor into fn and closes it.
func forEachWalk(cur runstore.Cursor, fn func(*crawler.Walk) error) error {
	defer cur.Close()
	for {
		w, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(w); err != nil {
			return err
		}
	}
}

// writeStore records r's walks into a fresh store at path and finalizes
// it — what crumbcruncher.SaveRunStore does, with the append and
// finalize phases timed apart.
func writeStore(path string, r *core.Run, tr *tracer) error {
	st, err := crumbcruncher.CreateRunStore(path, r.Config)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, w := range r.Dataset.Walks {
		if err := st.Append(w); err != nil {
			st.Close()
			return fmt.Errorf("append walk %d: %w", w.Index, err)
		}
	}
	tr.setSince("runstore.append_s", t0)
	t0 = time.Now()
	if err := st.Finalize(); err != nil {
		st.Close()
		return fmt.Errorf("finalize: %w", err)
	}
	tr.setSince("runstore.finalize_s", t0)
	if err := st.Close(); err != nil {
		return err
	}
	if tr != nil {
		size, err := dirSize(path)
		if err != nil {
			return err
		}
		tr.set("runstore.bytes_per_walk", float64(size)/float64(len(r.Dataset.Walks)))
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		size += fi.Size()
		return nil
	})
	return size, err
}

// probeIter times one plain cursor pass over the store at path and
// returns the decoded walks.
func probeIter(path string, tr *tracer) ([]*crawler.Walk, error) {
	st, err := runstore.Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var walks []*crawler.Walk
	t0 := time.Now()
	err = forEachWalk(st.Iter(), func(w *crawler.Walk) error {
		walks = append(walks, w)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cursor pass: %w", err)
	}
	tr.setSince("runstore.iter_s", t0)
	if len(walks) != st.Walks() {
		return nil, fmt.Errorf("cursor pass decoded %d of %d walks", len(walks), st.Walks())
	}
	return walks, nil
}

// archiveSample is how many walks the archive check reads back.
const archiveSample = 16

// checkArchive reopens the store at path and checks that it holds every
// walk of ds, and that an evenly spaced sample read back with Get
// encodes exactly like the walk that was appended.
func checkArchive(path string, ds *crawler.Dataset) error {
	st, err := runstore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	n := len(ds.Walks)
	if st.Walks() != n || st.Manifest().Walks != n {
		return fmt.Errorf("reopened store holds %d walks (manifest %d), appended %d", st.Walks(), st.Manifest().Walks, n)
	}
	for k := 0; k < archiveSample && n > 0; k++ {
		idx := k * (n - 1) / (archiveSample - 1)
		got, err := st.Get(idx)
		if err != nil {
			return fmt.Errorf("get walk %d: %w", idx, err)
		}
		a, err := json.Marshal(got)
		if err != nil {
			return err
		}
		b, err := json.Marshal(ds.Walks[idx])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("walk %d read back differs from the appended walk", idx)
		}
	}
	return nil
}
