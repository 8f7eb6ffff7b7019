package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"crumbcruncher/internal/core"
	"crumbcruncher/internal/runio"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/telemetry"
)

// indexVersion is bumped when the run-index entry layout changes.
const indexVersion = 1

// RunEntry is one line of the store's index: enough to list, locate and
// identify a persisted run without opening its (large) run store.
type RunEntry struct {
	ID string `json:"id"`
	// File is the run store's path, relative to the store directory.
	File       string `json:"file"`
	Seed       int64  `json:"seed"`
	ConfigHash string `json:"config_hash"`
	Walks      int    `json:"walks"`
	// SavedUptimeMs is the server's stopwatch reading at save time.
	SavedUptimeMs int64 `json:"saved_uptime_ms"`
}

// Store persists completed runs under one directory: one run store per
// crawl job (re-analyzable with cmd/crumbreport or a "reanalyze" job)
// plus an append-only JSONL index that survives restarts — reopening a store
// replays the index, so GET /runs lists runs saved by earlier server
// processes. Opening scans and repairs: torn index tails are dropped by
// the runio line-file codec, a corrupt index is quarantined and rebuilt
// from its salvageable records, and entries whose run stores are
// missing or damaged are dropped (counted on serve.store_dropped_runs,
// never silently). A crawl job writes its run store in the same
// directory as it crawls (JobRunPath); a drained job's store stays there
// unfinalized and unindexed.
type Store struct {
	dir     string
	mu      sync.Mutex
	index   *runio.LineFile
	entries []RunEntry
	byID    map[string]RunEntry
}

// OpenStore opens (or creates) a run store rooted at dir, scanning and
// repairing the index on the way up. tel (optional) counts the repairs:
// runio.recovered_records / runio.quarantined_files from the line-file
// layer, serve.store_dropped_runs for index entries that no longer
// resolve to a readable run store.
func OpenStore(dir string, tel *telemetry.Telemetry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	want := runio.Header{Format: runio.IndexFormat, Version: indexVersion}
	path := filepath.Join(dir, "index.jsonl")
	opts := runio.OpenOptions{Tel: tel}
	index, lines, err := runio.OpenLineFile(path, want)
	if errors.Is(err, runio.ErrCorrupt) {
		// The damaged index is quarantined; salvage what still verifies
		// and rebuild. The run stores themselves are untouched.
		var dmg *runio.DamageError
		errors.As(err, &dmg)
		tel.Counter("runio.quarantined_files").Inc()
		salvaged, dropped, serr := runio.SalvageLineFile(dmg.Quarantined, want)
		if serr != nil {
			return nil, fmt.Errorf("serve: store: index corrupt and unsalvageable: %v (%w)", serr, err)
		}
		log.Printf("serve: store: index corrupt at record %d (quarantined to %s): salvaged %d entries, dropped %d",
			dmg.Record, dmg.Quarantined, len(salvaged), dropped)
		tel.Counter("runio.recovered_records").Add(int64(len(salvaged)))
		index, err = runio.ReplaceLineFile(path, want, salvaged, opts)
		lines = salvaged
	}
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	s := &Store{dir: dir, index: index, byID: make(map[string]RunEntry)}
	var keep [][]byte
	droppedRuns := 0
	for _, line := range lines {
		var e RunEntry
		if err := json.Unmarshal(line, &e); err != nil {
			droppedRuns++
			log.Printf("serve: store: dropping unreadable index entry: %v", err)
			continue
		}
		if err := s.verifyRun(e); err != nil {
			droppedRuns++
			log.Printf("serve: store: dropping run %s: %v", e.ID, err)
			continue
		}
		keep = append(keep, line)
		s.entries = append(s.entries, e)
		s.byID[e.ID] = e
	}
	if droppedRuns > 0 {
		// Persist the cleaned index atomically so the dropped entries do
		// not resurface on the next boot.
		tel.Counter("serve.store_dropped_runs").Add(int64(droppedRuns))
		index.Close()
		index, err = runio.ReplaceLineFile(path, want, keep, opts)
		if err != nil {
			return nil, fmt.Errorf("serve: store: rewrite index: %w", err)
		}
		s.index = index
	}
	return s, nil
}

// verifyRun checks that an index entry still points at a readable run
// store: it opens, and every record of every segment verifies against
// its checksum (runstore.Verify). A damaged store is moved aside to
// "<path>.corrupt"; a path that is not a run store — such as a
// single-document run or a line-file store saved by an older server —
// fails the open and is left where it is. Either way the entry is
// dropped.
func (s *Store) verifyRun(e RunEntry) error {
	st, err := runstore.Open(s.RunPath(e))
	if err != nil {
		return err
	}
	if err := runstore.Verify(st); err != nil {
		return err // Verify closed st
	}
	return st.Close()
}

// Save indexes job id's run store, which the job's successful run has
// already written and finalized at JobRunPath(id).
func (s *Store) Save(id string, cfg core.Config, configHash string, uptimeMs int64) (RunEntry, error) {
	e := RunEntry{
		ID:            id,
		File:          jobRunFile(id),
		Seed:          cfg.World.Seed,
		ConfigHash:    configHash,
		Walks:         cfg.Walks,
		SavedUptimeMs: uptimeMs,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.index.Append(e); err != nil {
		return RunEntry{}, fmt.Errorf("serve: store: index: %w", err)
	}
	s.entries = append(s.entries, e)
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

// List returns the index entries in save order.
func (s *Store) List() []RunEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunEntry, len(s.entries))
	copy(out, s.entries)
	return out
}

// RunPath returns the absolute path of an entry's run store.
func (s *Store) RunPath(e RunEntry) string { return filepath.Join(s.dir, e.File) }

// jobRunFile names a job's run store, relative to the store directory.
func jobRunFile(jobID string) string { return "run-" + jobID + ".crumbs" }

// lastJobNumber returns the highest job number among the indexed runs
// and the run-job-* entries in the store directory, whatever their
// suffix (a drained job's store is not indexed, a quarantined one ends
// in ".corrupt", and an older server named its runs ".json"), so a
// restarted server numbers new jobs past every job an earlier process
// ran.
func (s *Store) lastJobNumber() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.entries))
	for _, e := range s.entries {
		ids = append(ids, e.ID)
	}
	files, _ := filepath.Glob(filepath.Join(s.dir, "run-job-*")) // the pattern is well-formed
	for _, f := range files {
		id, _, _ := strings.Cut(strings.TrimPrefix(filepath.Base(f), "run-"), ".")
		ids = append(ids, id)
	}
	last := 0
	for _, id := range ids {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > last {
			last = n
		}
	}
	return last
}

// JobRunPath returns where a crawl job's run store lives.
func (s *Store) JobRunPath(jobID string) string { return filepath.Join(s.dir, jobRunFile(jobID)) }

// Close closes the index file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index.Close()
}
