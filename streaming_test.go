package crumbcruncher_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
)

func metricsBytes(t *testing.T, run *crumbcruncher.Run) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := crumbcruncher.WriteMetricsJSON(&b, run); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// referenceMetrics re-analyses run's dataset stage by stage — every
// path, then every candidate, the lifetime index, identification and
// aggregation, each over the whole dataset — without the analysis
// engine, and renders the metrics. It is the independent path the
// engine's output is checked against.
func referenceMetrics(t *testing.T, run *crumbcruncher.Run, par int) []byte {
	t.Helper()
	ctx := context.Background()
	ds := run.Dataset
	paths, err := tokens.PathsFromDatasetCtx(ctx, ds, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := tokens.AllCandidatesCtx(ctx, paths, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	lifetimes := uid.BuildLifetimeIndex(ds)
	opt := run.Config.Identify
	opt.LifetimeOf = lifetimes.Lifetime
	opt.Parallelism = par
	cases, stats, err := uid.IdentifyCtx(ctx, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := analysis.NewContext(ctx, ds, paths, cases, par, nil)
	if err != nil {
		t.Fatal(err)
	}
	return metricsBytes(t, &crumbcruncher.Run{
		Config: run.Config, World: run.World, Dataset: ds,
		Paths: paths, Candidates: cands, Cases: cases, Stats: stats,
		Analysis: agg, Lifetimes: lifetimes,
	})
}

// TestEngineMatchesReference is the analysis engine's determinism
// contract: whatever feeds it — a live crawl (Run), the run's resident
// dataset (Reanalyze) or a segment store of the run (AnalyzeStore) — it
// must produce byte-identical metrics JSON to the stage-by-stage
// reference, at every parallelism, and the same bytes at every
// parallelism.
func TestEngineMatchesReference(t *testing.T) {
	base := crumbcruncher.SmallConfig()
	base.World.Seed = 2
	base.Walks = 40

	ctx := context.Background()
	var first []byte
	for _, par := range []int{1, 4, 16} {
		cfg := base
		cfg.Parallelism = par

		run, err := crumbcruncher.NewRunner(cfg).Run(ctx)
		if err != nil {
			t.Fatalf("parallelism %d: run: %v", par, err)
		}
		want := referenceMetrics(t, run, par)
		if first == nil {
			first = want
		} else if !bytes.Equal(want, first) {
			t.Errorf("parallelism %d: reference metrics differ from parallelism 1", par)
		}
		if !bytes.Equal(metricsBytes(t, run), want) {
			t.Errorf("parallelism %d: Run metrics differ from the reference", par)
		}

		rerun, err := crumbcruncher.NewRunner(cfg).Reanalyze(ctx, run)
		if err != nil {
			t.Fatalf("parallelism %d: reanalyze: %v", par, err)
		}
		if !bytes.Equal(metricsBytes(t, rerun), want) {
			t.Errorf("parallelism %d: Reanalyze metrics differ from the reference", par)
		}

		// The store records the run's config, Parallelism included, so
		// AnalyzeStore feeds its walks to par workers too.
		path := filepath.Join(t.TempDir(), "run.crumbs")
		if err := crumbcruncher.SaveRunStore(path, run); err != nil {
			t.Fatal(err)
		}
		st, err := crumbcruncher.OpenRunStore(path)
		if err != nil {
			t.Fatal(err)
		}
		srun, err := crumbcruncher.AnalyzeStore(ctx, st)
		if err != nil {
			st.Close()
			t.Fatalf("parallelism %d: analyze store: %v", par, err)
		}
		if !bytes.Equal(metricsBytes(t, srun), want) {
			t.Errorf("parallelism %d: AnalyzeStore metrics differ from the reference", par)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingCancellation cancels a streaming run mid-crawl and checks
// that the engine drains instead of leaking: the analysis workers and
// queue gauges must both return to zero, and every walk handed to the
// queue must have been analyzed.
func TestStreamingCancellation(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 2
	cfg.Walks = 30
	cfg.Parallelism = 4

	tel := crumbcruncher.NewTelemetry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	r := crumbcruncher.NewRunner(cfg,
		crumbcruncher.WithTelemetry(tel),
		crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
			if p.WalksDone >= 3 {
				once.Do(cancel)
			}
		}),
	)

	run, err := r.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if run != nil {
		t.Fatal("cancelled run returned a non-nil result")
	}

	if v := tel.Gauge("core.stream_workers").Value(); v != 0 {
		t.Errorf("leaked analysis workers: gauge core.stream_workers = %d", v)
	}
	if v := tel.Gauge("core.stream_queue_depth").Value(); v != 0 {
		t.Errorf("walks stuck in queue: gauge core.stream_queue_depth = %d", v)
	}
	analyzed := tel.Counter("core.stream_walks_analyzed").Value()
	sunk := tel.Counter("crawler.walks_done").Value() + tel.Counter("crawler.walks_skipped").Value()
	if analyzed != sunk {
		t.Errorf("analyzed %d walks but the crawl produced %d", analyzed, sunk)
	}
}

// TestStoreResumeByteIdentical interrupts a streaming run that records
// to a run store, resumes it from the store, and requires — on both
// backends — that the resumed run re-crawls none of the recorded walks
// and that its dataset and metrics are byte-identical to an
// uninterrupted run's. Transient faults under a retry policy put
// backoff on the virtual clock the store's completion clocks restore.
func TestStoreResumeByteIdentical(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = 2
	cfg.World.TransientFailRate = 0.3
	cfg.Walks = 20
	cfg.Parallelism = 1
	cfg.Retry = crumbcruncher.DefaultRetryPolicy()

	ref, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := metricsBytes(t, ref)
	wantDS, err := json.Marshal(ref.Dataset)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"run.jsonl", "run.crumbs"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			st, err := crumbcruncher.OpenWalkLog(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			_, err = crumbcruncher.NewRunner(cfg,
				crumbcruncher.WithRunStore(st),
				crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
					if p.WalksAnalyzed >= 5 {
						once.Do(cancel)
					}
				}),
			).Run(ctx)
			if err == nil {
				t.Fatal("interrupted run returned no error")
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st, err = crumbcruncher.OpenWalkLog(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if n := st.Walks(); n == 0 || n >= cfg.Walks {
				t.Fatalf("interrupted store holds %d of %d walks; the resume would be vacuous", n, cfg.Walks)
			}
			tel := crumbcruncher.NewTelemetry()
			run, err := crumbcruncher.NewRunner(cfg,
				crumbcruncher.WithRunStore(st),
				crumbcruncher.WithTelemetry(tel),
			).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			if v := tel.Counter("crawler.walks_resumed").Value(); v == 0 {
				t.Error("resume re-crawled every walk: counter crawler.walks_resumed = 0")
			}
			gotDS, err := json.Marshal(run.Dataset)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotDS, wantDS) {
				t.Error("resumed dataset differs from an uninterrupted run's")
			}
			if got := metricsBytes(t, run); !bytes.Equal(got, want) {
				t.Error("resumed run's metrics differ from an uninterrupted run's")
			}
			if !st.Finalized() || st.Walks() != cfg.Walks {
				t.Errorf("store after the resumed run: finalized %v, %d walks; want finalized, %d", st.Finalized(), st.Walks(), cfg.Walks)
			}
		})
	}
}

// TestRunnerOptions checks that functional options land in the runner's
// effective config and that the variadic constructor leaves the caller's
// Config untouched.
func TestRunnerOptions(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	tel := crumbcruncher.NewTelemetry()
	rp := crumbcruncher.DefaultRetryPolicy()
	rp.MaxAttempts = 7

	r := crumbcruncher.NewRunner(cfg,
		crumbcruncher.WithTelemetry(tel),
		crumbcruncher.WithRetryPolicy(rp),
	)
	got := r.Config()
	if got.Telemetry != tel {
		t.Error("WithTelemetry did not reach the runner config")
	}
	if got.Retry.MaxAttempts != 7 {
		t.Error("WithRetryPolicy did not reach the runner config")
	}
	if cfg.Telemetry != nil || cfg.Retry.MaxAttempts != 0 {
		t.Error("NewRunner mutated the caller's Config")
	}
}

// TestWorkStealingCrawlDeterminism pins the crawl's work-stealing
// dispatch (a fixed worker pool claiming walk indices from a shared
// counter) on a world with faults, retries and a request deadline.
// Each run records to a run store: runs at parallelism 1, 4 and 16 must
// produce byte-identical metrics JSON and byte-identical stored walk
// records, matched by index — every walk is a pure function of the
// configuration and its index — and so must every walk a parallelism-4
// run cancelled partway recorded.
func TestWorkStealingCrawlDeterminism(t *testing.T) {
	base := crumbcruncher.SmallConfig()
	base.World.Seed = 5
	base.Walks = 36
	base.World.ConnectFailRate = 0.033
	base.World.TransientFailRate = 0.2
	base.World.HTTPDegradeRate = 0.1
	base.World.LatencySpikeRate = 0.2
	base.Retry = crumbcruncher.DefaultRetryPolicy()
	base.RequestDeadline = 2 * time.Second

	// crawl runs cfg into a fresh store and returns the run's metrics
	// (nil when cancelled) and the JSON of every walk the store holds.
	crawl := func(cfg crumbcruncher.Config, cancelAfter int) ([]byte, map[int][]byte) {
		st, err := crumbcruncher.OpenWalkLog(filepath.Join(t.TempDir(), "run.crumbs"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := []crumbcruncher.Option{crumbcruncher.WithRunStore(st)}
		if cancelAfter > 0 {
			var once sync.Once
			opts = append(opts, crumbcruncher.WithProgress(func(p crumbcruncher.Progress) {
				if p.WalksDone >= cancelAfter {
					once.Do(cancel)
				}
			}))
		}
		run, err := crumbcruncher.NewRunner(cfg, opts...).Run(ctx)
		var metrics []byte
		switch {
		case cancelAfter > 0 && !errors.Is(err, context.Canceled):
			t.Fatalf("parallelism %d: cancelled run returned %v", cfg.Parallelism, err)
		case cancelAfter == 0 && err != nil:
			t.Fatalf("parallelism %d: %v", cfg.Parallelism, err)
		case cancelAfter == 0:
			metrics = metricsBytes(t, run)
		}
		walks := map[int][]byte{}
		for idx := 0; idx < cfg.Walks; idx++ {
			w, err := st.Get(idx)
			if err != nil {
				continue // not recorded: a walk the cancellation skipped
			}
			b, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			walks[idx] = b
		}
		return metrics, walks
	}

	var refMetrics []byte
	var refWalks map[int][]byte
	for _, par := range []int{1, 4, 16} {
		cfg := base
		cfg.Parallelism = par
		metrics, walks := crawl(cfg, 0)
		if refMetrics == nil {
			refMetrics, refWalks = metrics, walks
			if len(walks) != cfg.Walks {
				t.Fatalf("store holds %d of %d walks", len(walks), cfg.Walks)
			}
			continue
		}
		if !bytes.Equal(metrics, refMetrics) {
			t.Errorf("parallelism %d: metrics differ from parallelism 1", par)
		}
		for idx, b := range refWalks {
			if !bytes.Equal(walks[idx], b) {
				t.Errorf("parallelism %d: stored walk %d differs from parallelism 1", par, idx)
			}
		}
	}

	cfg := base
	cfg.Parallelism = 4
	_, walks := crawl(cfg, 12)
	if len(walks) == 0 || len(walks) == cfg.Walks {
		t.Fatalf("cancelled run recorded %d of %d walks; the check would be vacuous", len(walks), cfg.Walks)
	}
	for idx, b := range walks {
		if !bytes.Equal(b, refWalks[idx]) {
			t.Errorf("cancelled parallelism-4 run: stored walk %d differs from parallelism 1", idx)
		}
	}
}
