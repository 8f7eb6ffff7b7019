package core

import (
	"context"
	"errors"
	"io"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/web"
)

// storeSource adapts a runstore.Store to the analysis.WalkSource
// contract. Step totals and outcome counts are tallied once during the
// feed pass — the one full-store scan AnalyzeStore performs anyway —
// so the figure code never re-reads the store for counters.
type storeSource struct {
	st       runstore.Store
	walks    int
	steps    int
	outcomes map[crawler.StepOutcome]int
}

func (s *storeSource) WalkCount() int { return s.walks }
func (s *storeSource) StepCount() int { return s.steps }

func (s *storeSource) OutcomeCounts() map[crawler.StepOutcome]int { return s.outcomes }

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

// observe folds one walk into the cached counters.
func (s *storeSource) observe(w *crawler.Walk) {
	s.walks++
	s.steps += len(w.Steps)
	for _, st := range w.Steps {
		s.outcomes[st.Outcome]++
	}
}

// AnalyzeStore runs the post-crawl pipeline over a stored run by
// cursor: the walks feed the same engine a live crawl does, and the
// figure aggregation replays the store on demand. The decoded dataset
// is never resident all at once — memory is O(paths + candidates + one
// segment) — so 100k-walk stores analyse within a laptop-class budget.
// Results are byte-identical to the crawl that wrote the store.
//
// The returned Run has a nil Dataset; every consumer in the tree
// (metrics, report, Reidentify, MissedRefererTransfers) reads walk
// statistics through Run.Analysis instead.
func AnalyzeStore(ctx context.Context, cfg Config, world *web.World, st runstore.Store) (*Run, error) {
	src := &storeSource{st: st, outcomes: map[crawler.StepOutcome]int{}}
	return analyzeWalks(ctx, cfg, world, st.Walks(), resumeState{}, replay(ctx, src, src.observe))
}

// AnalyzeSource re-runs the post-crawl pipeline over any walk source
// that already knows its walk count: a Dataset, or the source of a
// previously analyzed run (Run.Analysis.Source). The returned Run holds
// the Dataset when src is one.
func AnalyzeSource(ctx context.Context, cfg Config, world *web.World, src analysis.WalkSource) (*Run, error) {
	return analyzeWalks(ctx, cfg, world, src.WalkCount(), resumeState{}, replay(ctx, src, nil))
}
