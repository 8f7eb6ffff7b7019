package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/telemetry"
)

// RunEntry identifies one finalized run of the store: enough to list,
// locate and identify it without reading its walks. Every field comes
// from the run store's name and manifest (runEntry).
type RunEntry struct {
	ID string `json:"id"`
	// File is the run store's path, relative to the store directory.
	File       string `json:"file"`
	Seed       int64  `json:"seed"`
	ConfigHash string `json:"config_hash"`
	Walks      int    `json:"walks"`
}

// Store persists completed runs under one directory, one run store per
// crawl job (re-analyzable with cmd/crumbreport or a "reanalyze" job).
// The directory is the run index: the finalized run-job-*.crumbs stores
// in it are the runs, and each manifest says what its run is. A crawl
// job writes its run store there as it crawls (JobRunPath); a drained
// job's store stays there unfinalized and unlisted.
type Store struct {
	dir string
	// lastJob is the highest job number among the store directory's
	// run-job-* entries at boot.
	lastJob int

	mu   sync.Mutex
	byID map[string]RunEntry
}

// OpenStore opens (or creates) a run store rooted at dir and lists the
// finalized runs in it. A run-job-* entry that holds no finalized run —
// a file, a directory without a manifest, a drained job's store — is
// skipped and left as it is. A finalized store must open and verify
// (runstore.Verify); one that does not is dropped, counted on tel's
// serve.store_dropped_runs, and, when damaged, moved aside to
// "<run>.crumbs.corrupt".
func OpenStore(dir string, tel *telemetry.Telemetry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	s := &Store{dir: dir, byID: make(map[string]RunEntry)}
	paths, _ := filepath.Glob(filepath.Join(dir, "run-job-*")) // the pattern is well-formed
	for _, path := range paths {
		// A quarantined store ends in ".corrupt" and an older server
		// named its runs ".json": their job numbers count all the same.
		file := filepath.Base(path)
		id, _, _ := strings.Cut(strings.TrimPrefix(file, "run-"), ".")
		s.lastJob = max(s.lastJob, jobNumber(id))
		if file != jobRunFile(id) {
			continue
		}
		if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
			continue
		}
		m, err := runstore.ReadManifest(path)
		if errors.Is(err, fs.ErrNotExist) || (err == nil && m.Walks == 0) {
			continue
		}
		if err == nil {
			err = verifyRun(path)
		}
		if err != nil {
			tel.Counter("serve.store_dropped_runs").Inc()
			log.Printf("serve: store: dropping run %s: %v", id, err)
			continue
		}
		s.byID[id] = runEntry(file, m)
	}
	return s, nil
}

// verifyRun checks that the finalized run store at path is readable: it
// opens, holds every walk its manifest counts, and every record of every
// segment verifies against its checksum (runstore.Verify, which moves a
// damaged store aside).
func verifyRun(path string) error {
	st, err := runstore.Open(path)
	if err != nil {
		return err
	}
	if !st.Finalized() {
		st.Close()
		return fmt.Errorf("serve: %s: manifest records %d walks, the store holds %d", path, st.Manifest().Walks, st.Walks())
	}
	if err := runstore.Verify(st); err != nil {
		return err // Verify closed st
	}
	return st.Close()
}

// runEntry describes the run store named file from its manifest.
func runEntry(file string, m runstore.Manifest) RunEntry {
	var prov telemetry.Provenance // unreadable provenance leaves the hash empty
	_ = json.Unmarshal(m.Provenance, &prov)
	return RunEntry{
		ID:         strings.TrimSuffix(strings.TrimPrefix(file, "run-"), ".crumbs"),
		File:       file,
		Seed:       m.Seed,
		ConfigHash: prov.ConfigHash,
		Walks:      m.Walks,
	}
}

// Add lists job id's run store, which the job's successful run has
// already written and finalized at JobRunPath(id).
func (s *Store) Add(id string) (RunEntry, error) {
	m, err := runstore.ReadManifest(s.JobRunPath(id))
	if err != nil {
		return RunEntry{}, fmt.Errorf("serve: store: %w", err)
	}
	e := runEntry(jobRunFile(id), m)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[e.ID] = e
	return e, nil
}

// Lookup finds a run entry by id.
func (s *Store) Lookup(id string) (RunEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	return e, ok
}

// List returns the runs in job-number order.
func (s *Store) List() []RunEntry {
	s.mu.Lock()
	out := make([]RunEntry, 0, len(s.byID))
	for _, e := range s.byID {
		out = append(out, e)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b RunEntry) int { return jobNumber(a.ID) - jobNumber(b.ID) })
	return out
}

// RunPath returns the absolute path of an entry's run store.
func (s *Store) RunPath(e RunEntry) string { return filepath.Join(s.dir, e.File) }

// jobRunFile names a job's run store, relative to the store directory.
func jobRunFile(jobID string) string { return "run-" + jobID + ".crumbs" }

// jobNumber is the number of job ID "job-NNNNNN" (0 for any other ID).
func jobNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil {
		return 0
	}
	return n
}

// JobRunPath returns where a crawl job's run store lives.
func (s *Store) JobRunPath(jobID string) string { return filepath.Join(s.dir, jobRunFile(jobID)) }
