package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crumbcruncher"
)

// soloMetrics runs the same job the server would — directly through the
// Runner API, no server involved — and returns its metrics JSON. This
// is the determinism reference: multi-tenant execution must reproduce
// these bytes exactly.
func soloMetrics(t *testing.T, seed int64, walks, parallelism int) []byte {
	t.Helper()
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = seed
	cfg.Walks = walks
	cfg.Parallelism = parallelism
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := crumbcruncher.WriteMetricsJSON(&buf, run); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJob(t *testing.T, base, body string) Status {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// waitState polls a job until it reaches a terminal state and returns
// the final status.
func waitState(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		getJSON(t, base+"/jobs/"+id, &st)
		switch st.State {
		case StateDone, StateFailed, StateCanceled, StateInterrupted:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

func fetchBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// TestConcurrentJobsDeterministic is the multi-tenancy backstop: three
// concurrent jobs — two sharing a world config (and therefore one
// cached world template), one on a different seed — must each produce
// metrics byte-identical to the same jobs run solo through the Runner
// API. Run under -race this also proves the shared world template is
// free of data races across tenants.
func TestConcurrentJobsDeterministic(t *testing.T) {
	const walks, par = 12, 2
	wantA := soloMetrics(t, 5, walks, par)
	wantB := soloMetrics(t, 6, walks, par)

	srv, err := New(Options{Workers: 3, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []string{
		fmt.Sprintf(`{"small":true,"seed":5,"walks":%d,"parallelism":%d}`, walks, par),
		fmt.Sprintf(`{"small":true,"seed":5,"walks":%d,"parallelism":%d}`, walks, par),
		fmt.Sprintf(`{"small":true,"seed":6,"walks":%d,"parallelism":%d}`, walks, par),
	}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			ids[i] = postJob(t, ts.URL, spec).ID
		}(i, spec)
	}
	wg.Wait()

	for i, id := range ids {
		st := waitState(t, ts.URL, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
		got := fetchBody(t, ts.URL+"/jobs/"+id+"/metrics")
		want := wantA
		if i == 2 {
			want = wantB
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %s (%d): metrics diverge from solo run", id, i)
		}
	}

	// The two seed-5 jobs share one template: exactly 2 cache misses
	// (one per distinct config) and 1 hit across the three jobs.
	var vars debugVars
	getJSON(t, ts.URL+"/debug/vars", &vars)
	if got := vars.Metrics.Counters["serve.world_cache_misses"]; got != 2 {
		t.Errorf("world cache misses = %d, want 2", got)
	}
	if got := vars.Metrics.Counters["serve.world_cache_hits"]; got != 1 {
		t.Errorf("world cache hits = %d, want 1", got)
	}
	if vars.WorldCacheSize != 2 {
		t.Errorf("world cache size = %d, want 2", vars.WorldCacheSize)
	}

	// All three runs persisted to the store.
	var runs []RunEntry
	getJSON(t, ts.URL+"/runs", &runs)
	if len(runs) != 3 {
		t.Fatalf("store lists %d runs, want 3", len(runs))
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReanalyzeMatchesCrawl submits a crawl, then a reanalysis of its
// stored run, and checks the two jobs agree byte-for-byte on metrics —
// the store round-trip plus the analysis-only pipeline reproduce the
// original results.
func TestReanalyzeMatchesCrawl(t *testing.T) {
	srv, err := New(Options{Workers: 1, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	crawl := postJob(t, ts.URL, `{"small":true,"seed":9,"walks":10,"parallelism":2}`)
	st := waitState(t, ts.URL, crawl.ID)
	if st.State != StateDone {
		t.Fatalf("crawl: state %s (%s)", st.State, st.Error)
	}
	crawlMetrics := fetchBody(t, ts.URL+"/jobs/"+crawl.ID+"/metrics")

	re := postJob(t, ts.URL, fmt.Sprintf(`{"kind":"reanalyze","run_id":%q,"parallelism":4}`, st.RunID))
	st = waitState(t, ts.URL, re.ID)
	if st.State != StateDone {
		t.Fatalf("reanalyze: state %s (%s)", st.State, st.Error)
	}
	reMetrics := fetchBody(t, ts.URL+"/jobs/"+re.ID+"/metrics")
	if !bytes.Equal(crawlMetrics, reMetrics) {
		t.Error("reanalysis metrics diverge from the original crawl")
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrain pins graceful shutdown: an in-flight job is interrupted with
// its run file left resumable, a queued job is canceled, late
// submissions get 503 + Retry-After, and Drain returns cleanly.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A job big enough to still be running when the drain lands, plus
	// one stuck behind it in the single-worker queue.
	running := postJob(t, ts.URL, `{"small":true,"seed":3,"walks":2000,"parallelism":2}`)
	queued := postJob(t, ts.URL, `{"small":true,"seed":4,"walks":5}`)

	// Drain only once a walk has been reported done: "running" alone can
	// mean the job is still building its world, and a drain landing then
	// leaves nothing in the run file. The crawler records a walk before
	// it reports the walk done, so from here on the run file is
	// non-empty.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st Status
		getJSON(t, ts.URL+"/jobs/"+running.ID, &st)
		if st.State == StateRunning && st.Progress.WalksDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed a walk (state %s, %d walks done)",
				running.ID, st.State, st.Progress.WalksDone)
		}
		time.Sleep(10 * time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()

	// Draining flips before the queue empties; late submissions must
	// see 503 + Retry-After for as long as the server is up.
	for {
		var health struct {
			Draining bool `json:"draining"`
		}
		getJSON(t, ts.URL+"/healthz", &health)
		if health.Draining {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"small":true,"seed":8}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 during drain carries no Retry-After header")
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	var st Status
	getJSON(t, ts.URL+"/jobs/"+running.ID, &st)
	if st.State != StateInterrupted {
		t.Errorf("in-flight job state = %s, want %s", st.State, StateInterrupted)
	}
	if st.RunFile == "" {
		t.Fatal("interrupted job has no run file")
	}
	// The run file must be resumable: an unfinalized store holding the
	// interrupted job's completed walks, and left out of the index.
	rs, err := crumbcruncher.OpenRunStore(st.RunFile)
	if err != nil {
		t.Fatalf("reopening run file: %v", err)
	}
	if rs.Finalized() {
		t.Error("drained job's run file is finalized")
	}
	if rs.Walks() == 0 {
		t.Error("run file recorded no completed walks")
	}
	rs.Close()
	if st.RunID != "" {
		t.Errorf("drained job indexed as run %q", st.RunID)
	}

	getJSON(t, ts.URL+"/jobs/"+queued.ID, &st)
	if st.State != StateCanceled {
		t.Errorf("queued job state = %s, want %s", st.State, StateCanceled)
	}
}

// TestCancelRunningJob pins DELETE /jobs/{id}: a running job stops and
// reports canceled, not interrupted (that state is reserved for drain).
func TestCancelRunningJob(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := postJob(t, ts.URL, `{"small":true,"seed":2,"walks":2000,"parallelism":2}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st Status
		getJSON(t, ts.URL+"/jobs/"+job.ID, &st)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st := waitState(t, ts.URL, job.ID)
	if st.State != StateCanceled {
		t.Errorf("state after DELETE = %s, want %s", st.State, StateCanceled)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSurvivesRestart pins the persistence contract: a second
// server over the same store directory lists the first server's runs
// and can reanalyze them, and numbers its jobs past every run-job-*
// entry an earlier server left, whatever its suffix.
func TestStoreSurvivesRestart(t *testing.T) {
	cases := []struct {
		name string
		// leave makes the unindexed job-000007 entry.
		leave func(path string) error
	}{
		// A run file an older server, which named runs ".json", left.
		{"old .json file", func(path string) error {
			return os.WriteFile(strings.TrimSuffix(path, ".crumbs")+".json", nil, 0o644)
		}},
		// A drained job's unfinalized store.
		{".crumbs directory", func(path string) error { return os.Mkdir(path, 0o755) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := New(Options{Workers: 1, StoreDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			job := postJob(t, ts.URL, `{"small":true,"seed":11,"walks":8}`)
			st := waitState(t, ts.URL, job.ID)
			if st.State != StateDone {
				t.Fatalf("state %s (%s)", st.State, st.Error)
			}
			if err := srv.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			ts.Close()
			if err := tc.leave(filepath.Join(dir, jobRunFile("job-000007"))); err != nil {
				t.Fatal(err)
			}

			srv2, err := New(Options{Workers: 1, StoreDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			var runs []RunEntry
			getJSON(t, ts2.URL+"/runs", &runs)
			if len(runs) != 1 || runs[0].ID != job.ID {
				t.Fatalf("restarted store lists %v, want the one saved run %s", runs, job.ID)
			}
			// A crawl job of the new process is numbered past every run
			// file, so it lands on none of an earlier process's.
			job2 := postJob(t, ts2.URL, `{"small":true,"seed":12,"walks":4}`)
			if job2.ID != "job-000008" {
				t.Fatalf("restarted server numbered its first job %s, want job-000008", job2.ID)
			}
			if st := waitState(t, ts2.URL, job2.ID); st.State != StateDone {
				t.Fatalf("crawl job after restart: state %s (%s)", st.State, st.Error)
			}
			if err := srv2.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
