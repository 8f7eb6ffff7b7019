package serve

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crumbcruncher/internal/core"
	"crumbcruncher/internal/crawler"
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

// TestStoreBootRepair: a server boots on a store directory whose
// run-job-* entries are in the states a crash, a drain or an older
// server leaves. Only finalized runs that verify are listed. An entry
// that holds no finalized run — a single-document file, a directory
// with no manifest, a drained job's unfinalized store with a torn tail
// — is skipped, not counted, and left byte for byte. A run whose
// manifest no longer reads is dropped and counted. The surviving run
// stays listable and reanalyzable, and a third boot lists the same.
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
	damaged := seedRun(2)
	single := seedRun(4)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// A single-document run (the pre-RunStore file shape) is not a run
	// store.
	singlePath := filepath.Join(dir, jobRunFile(single.ID))
	if err := os.RemoveAll(singlePath); err != nil {
		t.Fatal(err)
	}
	err = runstore.WriteFileAtomic(singlePath, func(w io.Writer) error {
		return runstore.WriteDocument(w, runstore.Header{Format: RunFormat, Version: RunVersion, Seed: 4})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of a finalized run's manifest.
	manifest := filepath.Join(dir, jobRunFile(damaged.ID), "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A directory with no manifest, and a drained job's store whose
	// unsealed segment ends in a torn record: neither holds a finalized
	// run, so a boot leaves both as they are.
	if err := os.Mkdir(filepath.Join(dir, jobRunFile("job-000010")), 0o755); err != nil {
		t.Fatal(err)
	}
	drained, err := runstore.Create(filepath.Join(dir, jobRunFile("job-000011")), runstore.Manifest{Header: runstore.Header{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := drained.Append(&crawler.Walk{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := drained.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, jobRunFile("job-000011"), "seg-000000.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteString("!0000"); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	untouched := []string{singlePath, manifest, filepath.Join(dir, jobRunFile("job-000010")), filepath.Join(dir, jobRunFile("job-000011"))}
	before := snapshotFiles(t, untouched)

	srv2, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var runs []RunEntry
	getJSON(t, ts2.URL+"/runs", &runs)
	if len(runs) != 1 || runs[0].ID != keep.ID {
		t.Fatalf("store lists %+v, want only %s", runs, keep.ID)
	}
	if n := srv2.tel.Registry().Snapshot().Counters["serve.store_dropped_runs"]; n != 1 {
		t.Fatalf("serve.store_dropped_runs = %d, want 1 (the run with the damaged manifest)", n)
	}
	if after := snapshotFiles(t, untouched); !reflect.DeepEqual(after, before) {
		t.Fatal("boot changed a run-job entry that holds no listable run")
	}

	// The surviving run still reanalyzes: its store verifies.
	re := postJob(t, ts2.URL, `{"kind":"reanalyze","run_id":"`+keep.ID+`"}`)
	if st := waitState(t, ts2.URL, re.ID); st.State != StateDone {
		t.Fatalf("reanalyze after repair: %s (%s)", st.State, st.Error)
	}
	if re.ID != "job-000012" {
		t.Fatalf("first job after the boot is %s, want job-000012 (past every run-job-* entry)", re.ID)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv3, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatalf("third boot: %v", err)
	}
	if got := srv3.store.List(); !reflect.DeepEqual(got, runs) {
		t.Fatalf("third boot lists %+v, want %+v", got, runs)
	}
	if err := srv3.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// snapshotFiles maps every file under paths (files or directories) to
// its bytes.
func snapshotFiles(t *testing.T, paths []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, root := range paths {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(p)
			out[p] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStoreBootVerifiesSealedSegments: a boot reads back every sealed
// segment of every finalized run, not just what opening a store checks.
// A run whose first sealed segment has one byte flipped is not listed;
// it is counted and moved aside whole. An intact run stays listed.
func TestStoreBootVerifiesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Walks: 600, World: web.Config{Seed: 9}}
	for _, id := range []string{"job-000001", "job-000002"} {
		st, err := runstore.Create(s.JobRunPath(id), runstore.Manifest{Header: runstore.Header{Seed: 9}})
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
		if _, err := s.Add(id); err != nil {
			t.Fatal(err)
		}
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
	if s.lastJob != 2 {
		t.Fatalf("lastJob = %d, want 2 (the quarantined job's number)", s.lastJob)
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
	if doc.Format != RunFormat || doc.Seed != 41 {
		t.Fatalf("run fetch decoded %+v", doc)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
