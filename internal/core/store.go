package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/web"
)

// StoreManifest builds the manifest a run store for cfg carries: the
// crawler roster, the configuration, and the run's provenance — with an
// attached Telemetry, a snapshot of its registry as of the call.
func StoreManifest(cfg Config) (runstore.Manifest, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return runstore.Manifest{}, fmt.Errorf("core: encode config: %w", err)
	}
	prov := telemetry.NewProvenance(cfg.World.Seed, cfg, cfg.Telemetry)
	pblob, err := json.Marshal(&prov)
	if err != nil {
		return runstore.Manifest{}, fmt.Errorf("core: encode provenance: %w", err)
	}
	m := runstore.Manifest{Crawlers: crawler.AllCrawlers, Config: blob, Provenance: pblob}
	m.Seed = cfg.World.Seed
	return m, nil
}

// sealStore stamps a finished run's manifest — its end-of-run
// provenance included — into the run's store and finalizes it.
func sealStore(cfg Config) error {
	m, err := StoreManifest(cfg)
	if err != nil {
		return err
	}
	cfg.Store.Stamp(m)
	if err := cfg.Store.Finalize(); err != nil {
		return fmt.Errorf("core: finalize run store: %w", err)
	}
	return nil
}

// storeLog is a run store serving as the crawler's walk log.
type storeLog struct{ runstore.Store }

// Recorded reports a walk the store has no record of as not recorded.
func (l storeLog) Recorded(idx int) (*crawler.Walk, error) {
	w, err := l.Get(idx)
	if errors.Is(err, runstore.ErrNoWalk) {
		return nil, nil
	}
	return w, err
}

// storeSource adapts a runstore.Store to the analysis.WalkSource
// contract. It keeps no counters: the walk-counting figures read the
// analysis engine's walk tally, filled during the one pass AnalyzeStore
// makes over the store, so only the figures that need walk records
// (third-party receivers, UID provenance, referer transfers) read the
// store again.
type storeSource struct {
	st runstore.Store
}

func (s *storeSource) WalkCount() int { return s.st.Walks() }

func (s *storeSource) ForEachWalk(fn func(*crawler.Walk) error) error {
	cur := s.st.Iter()
	defer cur.Close()
	for {
		w, err := cur.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if err := fn(w); err != nil {
			return err
		}
	}
}

func (s *storeSource) Walk(idx int) *crawler.Walk {
	w, err := s.st.Get(idx)
	if err != nil {
		return nil
	}
	return w
}

// AnalyzeStore runs the post-crawl pipeline over a stored run in one
// pass: Parallelism goroutines fetch walks 0…Walks()-1 with Store.Get,
// so records decode in parallel, and feed the same engine a live crawl
// does. The engine's walk tally answers every walk-counting figure, so
// AnalyzeStore plus WriteMetricsJSON decodes each stored walk exactly
// once. The decoded dataset is never resident all at once — memory is
// O(paths + candidates + one segment) — so 100k-walk stores analyse
// within a laptop-class budget. Results are byte-identical to the crawl
// that wrote the store.
//
// The returned Run has a nil Dataset; every consumer in the tree
// (metrics, report, Reidentify, MissedRefererTransfers) reads walk
// statistics through Run.Analysis instead, and the few figures that
// need walk records read them back from st.
func AnalyzeStore(ctx context.Context, cfg Config, world *web.World, st runstore.Store) (*Run, error) {
	n := st.Walks()
	return analyzeWalks(ctx, cfg, world, n, fetchAll(ctx, st, n, cfg.analysisParallelism()))
}

// fetchAll is the feed of a run store: par goroutines claim indices
// 0…n-1 one at a time from a shared counter, Get each walk and send it.
// Claiming one index at a time keeps the goroutines within a few walks
// of each other, so a segment store's two-slot cache gunzips each
// segment once. The first error stops every goroutine and is returned.
func fetchAll(ctx context.Context, st runstore.Store, n, par int) walkFeed {
	return func(send func(*crawler.Walk)) (analysis.WalkSource, error) {
		var (
			next     atomic.Int64
			stop     atomic.Bool
			errOnce  sync.Once
			firstErr error
			wg       sync.WaitGroup
		)
		fail := func(err error) {
			errOnce.Do(func() { firstErr = err })
			stop.Store(true)
		}
		for k := 0; k < par; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					idx := int(next.Add(1) - 1)
					if idx >= n {
						return
					}
					if err := ctx.Err(); err != nil {
						fail(err)
						return
					}
					w, err := st.Get(idx)
					if err != nil {
						fail(fmt.Errorf("core: read walks: %w", err))
						return
					}
					send(w)
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		return &storeSource{st: st}, nil
	}
}

// AnalyzeSource re-runs the post-crawl pipeline over any walk source
// that already knows its walk count: a Dataset, or the source of a
// previously analyzed run (Run.Analysis.Source). The returned Run holds
// the Dataset when src is one.
func AnalyzeSource(ctx context.Context, cfg Config, world *web.World, src analysis.WalkSource) (*Run, error) {
	return analyzeWalks(ctx, cfg, world, src.WalkCount(), replay(ctx, src))
}
