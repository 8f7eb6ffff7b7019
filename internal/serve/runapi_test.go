package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// runAPIDatasetSHA256 is the SHA-256 of the "dataset" member of GET
// /runs/{id} for the job pinnedRunJob submits: the stored walks as the
// API serves them, byte for byte.
const runAPIDatasetSHA256 = "613c1140128b11ed6354f93ad5e1c566e1c97f1d194b4eecb13f620e078c6837"

// pinnedRunJob is a small crawl job whose stored run the pin covers.
const pinnedRunJob = `{"small":true,"seed":5,"walks":6,"parallelism":2}`

// listedRun is what GET /runs must report of a run, before and after a
// server restart.
type listedRun struct {
	ID         string `json:"id"`
	File       string `json:"file"`
	Seed       int64  `json:"seed"`
	ConfigHash string `json:"config_hash"`
	Walks      int    `json:"walks"`
}

// TestRunAPIPinned pins the server's run API for one small crawl job:
// the dataset GET /runs/{id} serves, the whole body of that response
// across a server restart, and the GET /runs listing across a restart.
// The provenance member carries a wall-clock metrics snapshot, so only
// the dataset member is hashed; the whole body is compared between the
// two server processes, which read the same stored run.
func TestRunAPIPinned(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	job := postJob(t, ts.URL, pinnedRunJob)
	if st := waitState(t, ts.URL, job.ID); st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	body := fetchBody(t, ts.URL+"/runs/"+job.ID)
	var before []listedRun
	getJSON(t, ts.URL+"/runs", &before)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("GET /runs/%s is not JSON: %v", job.ID, err)
	}
	sum := sha256.Sum256(doc["dataset"])
	if got := hex.EncodeToString(sum[:]); got != runAPIDatasetSHA256 {
		t.Errorf("dataset SHA-256 = %s, want %s", got, runAPIDatasetSHA256)
	}
	if len(before) != 1 || before[0].ID != job.ID || before[0].File != "run-"+job.ID+".crumbs" ||
		before[0].Seed != 5 || before[0].Walks != 6 || before[0].ConfigHash != job.ConfigHash {
		t.Fatalf("GET /runs = %+v, want the one run of %s (config hash %s)", before, job.ID, job.ConfigHash)
	}

	srv2, err := New(Options{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got := fetchBody(t, ts2.URL+"/runs/"+job.ID); string(got) != string(body) {
		t.Error("GET /runs/{id} body changed across a server restart")
	}
	var after []listedRun
	getJSON(t, ts2.URL+"/runs", &after)
	if len(after) != len(before) || after[0] != before[0] {
		t.Errorf("GET /runs after a restart = %+v, want %+v", after, before)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
