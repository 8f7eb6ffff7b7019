package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// Progress is a snapshot of a run's advancement, delivered to
// Config.OnProgress. WalksDone counts the walks the run's source has
// delivered — crawled or resumed in a live run, read back in a
// re-analysis — and WalksAnalyzed trails it by the walks sitting in the
// analysis queue (QueueDepth).
type Progress struct {
	WalksTotal    int
	WalksDone     int
	WalksAnalyzed int
	QueueDepth    int
}

// progressNotifier serializes Progress mutations and callback delivery
// so OnProgress observers see monotonic snapshots. All methods are
// no-ops when no callback is registered.
type progressNotifier struct {
	mu sync.Mutex
	fn func(Progress)
	p  Progress
}

func newProgressNotifier(fn func(Progress), walks int) *progressNotifier {
	return &progressNotifier{fn: fn, p: Progress{WalksTotal: walks}}
}

func (n *progressNotifier) update(mut func(*Progress)) {
	if n == nil || n.fn == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mut(&n.p)
	n.fn(n.p)
}

// walkFeed delivers a walk source to the engine: it calls send once per
// walk — in any order, from any number of goroutines — returns only
// after its last send, and returns the source the figures aggregate
// over.
type walkFeed func(send func(*crawler.Walk)) (analysis.WalkSource, error)

// analyzeWalks is the pipeline's one analysis engine. Walks from feed go
// through a bounded channel to Parallelism workers that extract each
// walk's paths, find its candidates, scan its cookie lifetimes, group
// its tokens into walk-indexed slots and fold it into the worker's walk
// tally (analysis.Tally). Only the cross-walk stages (lifetime-index
// merge, deferred classification, ordered reduce, tally merge,
// aggregation) wait for the last walk. The feed is a live crawl
// (executeInWorld), a stored run read by parallel Get (AnalyzeStore) or
// any other walk source (AnalyzeSource); total sizes the slots.
//
// Determinism: every per-walk product lands in its walk's slot and the
// drain merges the slots in walk-index order, so the result is
// bit-identical at any parallelism and for any delivery order (the same
// contract as the parallel package); the tally holds only counts and
// sets, so its merge is order-free too. A walk without a free slot — nil,
// out of range or delivered twice — is dropped and fails the run once
// the feed returns.
func analyzeWalks(ctx context.Context, cfg Config, world *web.World, total int, feed walkFeed) (*Run, error) {
	tel := cfg.Telemetry
	reg := tel.Registry()
	par := cfg.analysisParallelism()

	esp := tel.StartSpan("core", "stream")

	acc := tokens.NewAccumulator(cfg.World.Seed, total, crawler.AllCrawlers, tel)
	lifeAcc := uid.NewLifetimeAccumulator(total)
	opt := cfg.Identify
	if opt.Parallelism == 0 {
		opt.Parallelism = par
	}
	if opt.Telemetry == nil {
		opt.Telemetry = tel
	}
	ident := uid.NewStreamIdentifier(total, opt)

	notify := newProgressNotifier(cfg.OnProgress, total)
	queueDepth := reg.Gauge("core.stream_queue_depth")
	workers := reg.Gauge("core.stream_workers")
	analyzed := reg.Counter("core.stream_walks_analyzed")

	// Bounded at Parallelism: a slow analysis backpressures the feed
	// instead of buffering the walks a second time.
	walkCh := make(chan *crawler.Walk, par)
	// One walk tally per worker, merged at the drain.
	tallies := make([]*analysis.Tally, par)
	var wwg sync.WaitGroup
	for k := 0; k < par; k++ {
		tally := analysis.NewTally()
		tallies[k] = tally
		wwg.Add(1)
		workers.Add(1)
		go func() {
			defer wwg.Done()
			defer workers.Add(-1)
			for w := range walkCh {
				queueDepth.Add(-1)
				sp := tel.StartSpan("analysis", "stream_walk").
					Attr("walk", strconv.Itoa(w.Index))
				tally.Add(w)
				lifeAcc.AddWalk(w)
				ident.AddWalk(w.Index, acc.AddWalk(w).Candidates)
				sp.End()
				analyzed.Inc()
				notify.update(func(p *Progress) {
					p.WalksAnalyzed++
					p.QueueDepth--
				})
			}
		}()
	}

	var (
		slotMu  sync.Mutex
		claimed = make([]bool, total)
		badWalk error
	)
	send := func(w *crawler.Walk) {
		slotMu.Lock()
		if w == nil || w.Index < 0 || w.Index >= total || claimed[w.Index] {
			if badWalk == nil {
				badWalk = badWalkError(w, total)
			}
			slotMu.Unlock()
			return
		}
		claimed[w.Index] = true
		slotMu.Unlock()
		queueDepth.Add(1)
		notify.update(func(p *Progress) {
			p.WalksDone++
			p.QueueDepth++
		})
		walkCh <- w
	}

	src, err := feed(send)
	// The feed has made its last send, so the channel can close now. The
	// workers are drained even when the feed failed: a cancelled run
	// must not leak analysis goroutines.
	close(walkCh)
	wwg.Wait()
	if err == nil {
		err = badWalk
	}
	if err != nil {
		esp.EndErr(err)
		return nil, err
	}

	// Drain: merge every per-walk product in walk-index order and run
	// the cross-walk stages.
	dsp := tel.StartSpan("analysis", "stream_drain")
	paths, cands := acc.Drain()
	lifetimes := lifeAcc.Drain()
	cases, stats, err := ident.Drain(ctx, lifetimes)
	if err != nil {
		dsp.EndErr(err)
		esp.EndErr(err)
		return nil, fmt.Errorf("core: identify: %w", err)
	}
	tally := tallies[0]
	for _, t := range tallies[1:] {
		tally.Merge(t)
	}
	agg, err := analysis.NewFromTally(ctx, src, tally, paths, cases, par, tel)
	if err != nil {
		dsp.EndErr(err)
		esp.EndErr(err)
		return nil, fmt.Errorf("core: aggregate: %w", err)
	}
	dsp.End()
	esp.End()

	// A live crawl or an in-memory dataset stays resident on the Run; a
	// store-fed run keeps reading its walks through Run.Analysis.
	ds, _ := src.(*crawler.Dataset)
	return &Run{
		Config:     cfg,
		World:      world,
		Dataset:    ds,
		Paths:      paths,
		Candidates: cands,
		Cases:      cases,
		Stats:      stats,
		Analysis:   agg,
		Lifetimes:  lifetimes,
	}, nil
}

// badWalkError describes a walk the engine has no free slot for.
func badWalkError(w *crawler.Walk, total int) error {
	if w == nil {
		return errors.New("core: walk source delivered a nil walk")
	}
	if w.Index < 0 || w.Index >= total {
		return fmt.Errorf("core: walk index %d outside the source's %d walks", w.Index, total)
	}
	return fmt.Errorf("core: walk %d delivered twice", w.Index)
}

// replay is the feed of a recorded walk source: its walks in index
// order, with ctx checked between walks.
func replay(ctx context.Context, src analysis.WalkSource) walkFeed {
	return func(send func(*crawler.Walk)) (analysis.WalkSource, error) {
		err := src.ForEachWalk(func(w *crawler.Walk) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			send(w)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: read walks: %w", err)
		}
		return src, nil
	}
}
