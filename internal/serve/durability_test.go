package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crumbcruncher/internal/core"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runio"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/web"
)

// TestJobPanicIsolated: a panicking job lands in state failed with the
// panic and stack in the record, and the worker keeps serving jobs.
func TestJobPanicIsolated(t *testing.T) {
	srv, err := New(Options{Workers: 1, Hooks: Hooks{
		BeforeJob: func(jobID string, spec JobSpec) {
			if spec.Seed == 666 {
				panic("chaos: job panic point")
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := postJob(t, ts.URL, `{"small":true,"seed":666,"walks":4}`)
	st := waitState(t, ts.URL, bad.ID)
	if st.State != StateFailed {
		t.Fatalf("panicked job state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "job panicked") || !strings.Contains(st.Error, "chaos: job panic point") {
		t.Fatalf("panic cause missing from job record: %q", st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("stack missing from job record: %q", st.Error)
	}

	// The daemon survived: the same worker completes the next job.
	good := postJob(t, ts.URL, `{"small":true,"seed":7,"walks":4}`)
	if st := waitState(t, ts.URL, good.ID); st.State != StateDone {
		t.Fatalf("job after panic: state %s (%s)", st.State, st.Error)
	}

	var vars struct {
		Metrics telemetry.Snapshot `json:"metrics"`
	}
	getJSON(t, ts.URL+"/debug/vars", &vars)
	if n := vars.Metrics.Counters["serve.jobs_panicked"]; n != 1 {
		t.Fatalf("serve.jobs_panicked = %d, want 1", n)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWorldCachePanicEvictsKey: a panic inside the world build fails
// the building job, releases any waiters with an error, evicts the key,
// and lets the next job rebuild successfully.
func TestWorldCachePanicEvictsKey(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := true
	srv.cache.buildFn = func(wc web.Config) *web.World {
		if boom {
			boom = false
			panic("chaos: world build panic")
		}
		return web.BuildWorld(wc)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := postJob(t, ts.URL, `{"small":true,"seed":21,"walks":4}`)
	st := waitState(t, ts.URL, first.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "world build panic") {
		t.Fatalf("building job: state %s (%s)", st.State, st.Error)
	}
	if srv.cache.Len() != 0 {
		t.Fatalf("failed build left %d cache entries, want 0 (evicted)", srv.cache.Len())
	}

	// Same config hash, same key: the retry rebuilds instead of
	// inheriting the wedge.
	second := postJob(t, ts.URL, `{"small":true,"seed":21,"walks":4}`)
	if st := waitState(t, ts.URL, second.ID); st.State != StateDone {
		t.Fatalf("retry after build panic: state %s (%s)", st.State, st.Error)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobTimeout: a job still running past its timeout_ms fails with a
// timeout cause, not a cancellation.
func TestJobTimeout(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A full-size world (400 sites, 5000 walks) cannot finish in 1ms.
	job := postJob(t, ts.URL, `{"seed":3,"timeout_ms":1}`)
	st := waitState(t, ts.URL, job.ID)
	if st.State != StateFailed {
		t.Fatalf("timed-out job state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "timed out after 1ms") {
		t.Fatalf("timeout cause missing: %q", st.Error)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBootRepair: a server booting on a damaged store heals it —
// a corrupt index is quarantined and rebuilt from salvageable records,
// entries whose run stores are gone or are not run stores are dropped,
// and the surviving runs stay listable and reanalyzable.
func TestStoreBootRepair(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	seedRun := func(seed int) Status {
		job := postJob(t, ts.URL, `{"small":true,"seed":`+string(rune('0'+seed))+`,"walks":6}`)
		if st := waitState(t, ts.URL, job.ID); st.State != StateDone {
			t.Fatalf("seed job: %s (%s)", st.State, st.Error)
		}
		return job
	}
	keep := seedRun(1)
	corrupted := seedRun(2)
	missing := seedRun(3)
	single := seedRun(4)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Damage: flip a byte inside one run's index entry (mid-file
	// corruption) and delete another run's store outright.
	if err := os.RemoveAll(filepath.Join(dir, jobRunFile(missing.ID))); err != nil {
		t.Fatal(err)
	}
	// A single-document run (the pre-RunStore file shape) is not a run
	// store: its entry is dropped, and the file is left where it is.
	singlePath := filepath.Join(dir, jobRunFile(single.ID))
	if err := os.RemoveAll(singlePath); err != nil {
		t.Fatal(err)
	}
	err = runio.WriteFileAtomic(singlePath, func(w io.Writer) error {
		return runio.WriteDocument(w, runio.Header{Format: runio.RunFormat, Version: runio.RunVersion, Seed: 4})
	})
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "index.jsonl")
	data, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the third line — the corrupted run's index
	// entry (line one is the header, line two the kept run).
	nl, seen := 0, 0
	for i, b := range data {
		if b == '\n' {
			seen++
			if seen == 2 {
				nl = i
				break
			}
		}
	}
	data[nl+1+25] ^= 0x04
	if err := os.WriteFile(idxPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = corrupted

	srv2, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var runs []RunEntry
	getJSON(t, ts2.URL+"/runs", &runs)
	if len(runs) != 1 || runs[0].ID != keep.ID {
		t.Fatalf("repaired store lists %+v, want only %s", runs, keep.ID)
	}
	// The quarantined index is preserved for forensics; the live index
	// was rewritten clean, so a third boot sees no damage.
	if _, err := os.Stat(idxPath + ".corrupt"); err != nil {
		t.Fatalf("quarantined index missing: %v", err)
	}
	reg := srv2.tel.Registry().Snapshot()
	if reg.Counters["runio.quarantined_files"] == 0 {
		t.Fatal("quarantine not counted in telemetry")
	}
	if n := reg.Counters["serve.store_dropped_runs"]; n != 2 {
		t.Fatalf("serve.store_dropped_runs = %d, want 2 (missing and single-document runs)", n)
	}
	if _, err := os.Stat(singlePath); err != nil {
		t.Fatalf("single-document run file moved: %v", err)
	}

	// The surviving run still reanalyzes: its document verifies.
	re := postJob(t, ts2.URL, `{"kind":"reanalyze","run_id":"`+keep.ID+`"}`)
	if st := waitState(t, ts2.URL, re.ID); st.State != StateDone {
		t.Fatalf("reanalyze after repair: %s (%s)", st.State, st.Error)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv3, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatalf("third boot on repaired store: %v", err)
	}
	if err := srv3.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreBootVerifiesSealedSegments: a boot reads back every sealed
// segment of every indexed run, not just what opening a store checks.
// A run whose first sealed segment has one byte flipped is dropped from
// the index, counted, and moved aside whole; an intact run stays listed.
func TestStoreBootVerifiesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Walks: 600, World: web.Config{Seed: 9}}
	for _, id := range []string{"job-000001", "job-000002"} {
		st, err := runstore.Create(s.JobRunPath(id), runstore.Manifest{Header: runio.Header{Seed: 9}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.Walks; i++ { // two full segments seal, Finalize seals the third
			if err := st.Append(&crawler.Walk{Index: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Finalize(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save(id, cfg, "h", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	damaged := s.JobRunPath("job-000002")
	seg := filepath.Join(damaged, "seg-000000.sgz")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New(nil, 1)
	s, err = OpenStore(dir, tel)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if runs := s.List(); len(runs) != 1 || runs[0].ID != "job-000001" {
		t.Fatalf("store lists %+v, want only job-000001", runs)
	}
	if n := tel.Counter("serve.store_dropped_runs").Value(); n != 1 {
		t.Fatalf("serve.store_dropped_runs = %d, want 1", n)
	}
	if _, err := os.Stat(damaged); !os.IsNotExist(err) {
		t.Fatalf("damaged store still at its path: %v", err)
	}
	if _, err := os.Stat(damaged + ".corrupt"); err != nil {
		t.Fatalf("damaged store not moved aside: %v", err)
	}
	if n := s.lastJobNumber(); n != 2 {
		t.Fatalf("lastJobNumber = %d, want 2 (the quarantined job's number)", n)
	}
}

// TestRunFetchServesVerifiedPayload: GET /runs/{id} returns the framed
// document's raw JSON payload, not the frame line.
func TestRunFetchServesVerifiedPayload(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	job := postJob(t, ts.URL, `{"small":true,"seed":41,"walks":4}`)
	if st := waitState(t, ts.URL, job.ID); st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	body := fetchBody(t, ts.URL+"/runs/"+job.ID)
	if len(body) == 0 || body[0] != '{' {
		t.Fatalf("run fetch starts with %q, want raw JSON", body[:1])
	}
	var doc struct {
		Format string `json:"format"`
		Seed   int64  `json:"seed"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("run fetch is not valid JSON: %v", err)
	}
	if doc.Format != runio.RunFormat || doc.Seed != 41 {
		t.Fatalf("run fetch decoded %+v", doc)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
