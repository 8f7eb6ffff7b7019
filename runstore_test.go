package crumbcruncher_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"crumbcruncher"
	"crumbcruncher/internal/crawler"
)

// TestRunStoreMetricsIdentical pins the RunStore acceptance bar: a
// crawl saved to a run store, then re-analysed by cursor through
// AnalyzeStore, reproduces the in-memory run's metrics JSON byte for
// byte — at analysis parallelism 1, 4 and 16.
func TestRunStoreMetricsIdentical(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 7
	cfg.Walks = 40
	base, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := crumbcruncher.WriteMetricsJSON(&want, base); err != nil {
		t.Fatal(err)
	}

	// A store is a segment directory at whatever path it is given.
	path := filepath.Join(t.TempDir(), "crawl.json")
	if err := crumbcruncher.SaveRunStore(path, base); err != nil {
		t.Fatalf("save: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("run store is not a directory: %v %v", fi, err)
	}

	st, err := crumbcruncher.OpenRunStore(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if st.Walks() != cfg.Walks {
		t.Fatalf("store holds %d walks, want %d", st.Walks(), cfg.Walks)
	}
	run, err := crumbcruncher.AnalyzeStore(context.Background(), st)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var got strings.Builder
	if err := crumbcruncher.WriteMetricsJSON(&got, run); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("store-analysed metrics diverge from the in-memory run")
	}
	for _, par := range []int{1, 4, 16} {
		pcfg := run.Config
		pcfg.Parallelism = par
		rerun, err := crumbcruncher.NewRunner(pcfg).Reanalyze(context.Background(), run)
		if err != nil {
			t.Fatalf("reanalyze par=%d: %v", par, err)
		}
		var pgot strings.Builder
		if err := crumbcruncher.WriteMetricsJSON(&pgot, rerun); err != nil {
			t.Fatal(err)
		}
		if pgot.String() != want.String() {
			t.Errorf("metrics diverge at parallelism %d", par)
		}
	}
}

// TestRunStoreWalkAccess pins random access through the public API: a
// saved run serves any single walk by index without analysis.
func TestRunStoreWalkAccess(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 3
	cfg.Walks = 12
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crawl.crumbs")
	if err := crumbcruncher.SaveRunStore(path, run); err != nil {
		t.Fatal(err)
	}
	st, err := crumbcruncher.OpenRunStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := st.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if w.Index != 7 || len(w.Steps) == 0 {
		t.Fatalf("walk 7 = index %d with %d steps", w.Index, len(w.Steps))
	}
	if _, err := st.Get(99); err == nil {
		t.Fatal("Get(99) on a 12-walk store succeeded")
	}
}

// decodeCounter wraps a run store and counts, per walk index, the walks
// decoded through it by cursor or by Get.
type decodeCounter struct {
	crumbcruncher.RunStore
	mu      sync.Mutex
	decodes map[int]int
}

func (s *decodeCounter) count(w *crawler.Walk) {
	s.mu.Lock()
	s.decodes[w.Index]++
	s.mu.Unlock()
}

func (s *decodeCounter) Get(idx int) (*crawler.Walk, error) {
	w, err := s.RunStore.Get(idx)
	if err == nil {
		s.count(w)
	}
	return w, err
}

func (s *decodeCounter) Iter() crumbcruncher.RunCursor {
	return &countingCursor{RunCursor: s.RunStore.Iter(), s: s}
}

type countingCursor struct {
	crumbcruncher.RunCursor
	s *decodeCounter
}

func (c *countingCursor) Next() (*crawler.Walk, error) {
	w, err := c.RunCursor.Next()
	if err == nil {
		c.s.count(w)
	}
	return w, err
}

// TestStoreReanalysisDecodesOnce pins the one-pass re-analysis:
// AnalyzeStore followed by WriteMetricsJSON decodes every stored walk
// exactly once, at stored parallelism 1 and 4 and at an analysis
// parallelism an option sets apart from the stored one, and reproduces
// the crawl's metrics; under a cancelled context it fails with the
// context's error.
func TestStoreReanalysisDecodesOnce(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 5
	cfg.Walks = 40
	base, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := metricsBytes(t, base)

	for _, par := range []int{1, 4} {
		// The store records the run's config, and AnalyzeStore runs at
		// its Parallelism.
		saved := *base
		saved.Config.Parallelism = par
		path := filepath.Join(t.TempDir(), "run.crumbs")
		if err := crumbcruncher.SaveRunStore(path, &saved); err != nil {
			t.Fatal(err)
		}
		st, err := crumbcruncher.OpenRunStore(path)
		if err != nil {
			t.Fatal(err)
		}
		// At the stored parallelism, and at another one set by an
		// option as crumbreport -parallel sets it: one pass either way.
		other := 5 - par
		for _, apar := range []int{par, other} {
			var opts []crumbcruncher.Option
			if apar != par {
				opts = append(opts, func(c *crumbcruncher.Config) { c.Parallelism = apar })
			}
			counted := &decodeCounter{RunStore: st, decodes: map[int]int{}}
			run, err := crumbcruncher.AnalyzeStore(context.Background(), counted, opts...)
			if err != nil {
				st.Close()
				t.Fatalf("stored parallelism %d, analysis %d: analyze: %v", par, apar, err)
			}
			if run.Config.Parallelism != apar {
				t.Errorf("stored parallelism %d: analysed at %d, want %d", par, run.Config.Parallelism, apar)
			}
			if got := metricsBytes(t, run); !bytes.Equal(got, want) {
				t.Errorf("stored parallelism %d, analysis %d: store metrics differ from the crawl's", par, apar)
			}
			if len(counted.decodes) != cfg.Walks {
				t.Errorf("stored parallelism %d, analysis %d: decoded %d distinct walks, want %d", par, apar, len(counted.decodes), cfg.Walks)
			}
			for idx, n := range counted.decodes {
				if n != 1 {
					t.Errorf("stored parallelism %d, analysis %d: walk %d decoded %d times, want once", par, apar, idx, n)
				}
			}
		}
		// A cancelled re-analysis stops its fetchers and reports why.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := crumbcruncher.AnalyzeStore(ctx, st); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: cancelled analyze = %v, want context.Canceled", par, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWalkLogRefusesOtherConfig pins the resume precondition: a walk
// log resumes only under the configuration it was recorded with. A log
// recorded with -small -seed 3 -walks 8 must not resume a run with other
// sites and steps (its walks come from another world), and the error
// names both config hashes; Parallelism is not part of the hash, so a
// different pool size still resumes.
func TestWalkLogRefusesOtherConfig(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 3
	cfg.Walks = 8
	path := filepath.Join(t.TempDir(), "run.jsonl")
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.World.NumSites = 40
	other.StepsPerWalk = 4
	_, err = crumbcruncher.OpenWalkLog(path, other)
	if err == nil {
		t.Fatal("walk log recorded under one config resumed under another")
	}
	for _, h := range []string{cfg.Hash(), other.Hash()} {
		if !strings.Contains(err.Error(), h) {
			t.Errorf("error %q does not name config hash %s", err, h)
		}
	}

	par := cfg
	par.Parallelism = cfg.Parallelism + 3
	st, err = crumbcruncher.OpenWalkLog(path, par)
	if err != nil {
		t.Fatalf("a different Parallelism refused to resume: %v", err)
	}
	st.Close()
}

// TestWalkLogRefusesFinalizedStore pins that a finished run's store is
// never reopened as a walk log: OpenWalkLog fails on it up front, before
// any world is built or walk crawled, and leaves it finalized.
func TestWalkLogRefusesFinalizedStore(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 2
	cfg.Walks = 10
	for _, name := range []string{"run.jsonl", "run.crumbs"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			st, err := crumbcruncher.CreateRunStore(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Append(&crawler.Walk{Index: 0}); err != nil {
				t.Fatal(err)
			}
			if err := st.Finalize(); err != nil {
				t.Fatal(err)
			}
			st.Close()

			if _, err := crumbcruncher.OpenWalkLog(path, cfg); err == nil || !strings.Contains(err.Error(), "finalized") {
				t.Fatalf("OpenWalkLog over a finalized store: %v, want a finalized-store error", err)
			}
			st, err = crumbcruncher.OpenRunStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if !st.Finalized() || st.Walks() != 1 {
				t.Errorf("refused store changed: finalized %v, %d walks", st.Finalized(), st.Walks())
			}
		})
	}
}

// TestWalkLogRefusesRegularFile pins what -save does over a regular
// file, such as a line-file store from before every store was a
// directory: OpenWalkLog refuses it, naming the path, and leaves the
// file as it was — never overwritten, quarantined or moved.
func TestWalkLogRefusesRegularFile(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.Walks = 4
	path := filepath.Join(t.TempDir(), "old.jsonl")
	before := []byte("!00000000!00000000!\n")
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := crumbcruncher.OpenWalkLog(path, cfg)
	if err == nil {
		st.Close()
		t.Fatal("OpenWalkLog made a walk log over a regular file")
	}
	if !strings.Contains(err.Error(), path+" is not a run-store directory") {
		t.Fatalf("OpenWalkLog over a regular file: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("file changed by the refused open: %q, %v", after, err)
	}
}
