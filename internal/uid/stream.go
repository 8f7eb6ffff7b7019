package uid

import (
	"context"
	"time"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/parallel"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/tokens"
)

// LifetimeAccumulator builds a LifetimeIndex incrementally, one walk at
// a time, for the streaming engine. AddWalk calls on distinct indices
// may run concurrently; Drain merges per-walk partials in walk-index
// order with first-occurrence-wins semantics — the same scan the batch
// BuildLifetimeIndex performs, so the index is identical.
type LifetimeAccumulator struct {
	perWalk []map[string]time.Duration
}

// NewLifetimeAccumulator sizes an accumulator for the given walk count.
func NewLifetimeAccumulator(walks int) *LifetimeAccumulator {
	return &LifetimeAccumulator{perWalk: make([]map[string]time.Duration, walks)}
}

// AddWalk scans one walk's storage snapshots into a per-walk partial.
func (a *LifetimeAccumulator) AddWalk(w *crawler.Walk) {
	m := map[string]time.Duration{}
	scanWalkLifetimes(w, m)
	a.perWalk[w.Index] = m
}

// Drain merges the per-walk partials into the final index.
func (a *LifetimeAccumulator) Drain() *LifetimeIndex {
	idx := &LifetimeIndex{byValue: map[string]time.Duration{}}
	for _, m := range a.perWalk {
		for v, d := range m {
			if _, ok := idx.byValue[v]; !ok {
				idx.byValue[v] = d
			}
		}
	}
	return idx
}

// StreamIdentifier runs UID identification incrementally for the
// streaming engine. Each walk's candidates are grouped (and, when the
// options permit, classified) as the walk finishes; Drain performs the
// ordered reduce over all walks and returns exactly what a batch
// IdentifyCtx over the concatenated candidate list would.
//
// Classification is eager unless the prior-work lifetime heuristic is
// enabled without a lifetime function: that rule needs the full
// lifetime index, which only exists after every walk has been scanned,
// so classification is deferred to Drain in that configuration.
type StreamIdentifier struct {
	opt     Options
	include map[string]bool
	eager   bool
	observe func(time.Duration)
	perWalk []walkGroups
}

// walkGroups is one walk's grouped candidates and (when classification
// ran eagerly) their verdicts.
type walkGroups struct {
	candidates int
	groups     []*Group
	verdicts   []groupVerdict
}

// NewStreamIdentifier sizes a streaming identifier for the given walk
// count.
func NewStreamIdentifier(walks int, opt Options) *StreamIdentifier {
	return &StreamIdentifier{
		opt:     opt,
		include: opt.crawlerSet(),
		eager:   opt.LifetimeThreshold <= 0 || opt.LifetimeOf != nil,
		observe: opt.Telemetry.Registry().Histogram("uid.classify_shard_us").Microseconds(),
		perWalk: make([]walkGroups, walks),
	}
}

// AddWalk groups (and eagerly classifies, when possible) one walk's
// candidates. Calls on distinct indices may run concurrently.
func (s *StreamIdentifier) AddWalk(index int, cands []*tokens.Candidate) {
	wg := walkGroups{candidates: len(cands), groups: GroupCandidates(cands, s.opt)}
	if s.eager {
		wg.verdicts = make([]groupVerdict, len(wg.groups))
		for i, g := range wg.groups {
			if s.observe != nil {
				sw := telemetry.StartStopwatch()
				wg.verdicts[i] = classifyGroup(g, s.opt, s.include)
				s.observe(sw.Elapsed())
			} else {
				wg.verdicts[i] = classifyGroup(g, s.opt, s.include)
			}
		}
	}
	s.perWalk[index] = wg
}

// Drain concatenates per-walk groups in walk-index order — candidates
// of one walk only ever form groups of that walk, and GroupCandidates
// sorts by (walk, step, name), so the concatenation equals the batch
// grouping of the full candidate list — classifies any deferred groups
// against the now-complete lifetime index, and performs the same
// ordered reduce as IdentifyCtx.
func (s *StreamIdentifier) Drain(ctx context.Context, lifetimes *LifetimeIndex) ([]*Case, Stats, error) {
	stats := Stats{Programmatic: map[tokens.FilterReason]int{}}
	totalGroups := 0
	for _, wg := range s.perWalk {
		stats.Candidates += wg.candidates
		totalGroups += len(wg.groups)
	}
	stats.Groups = totalGroups

	verdicts := make([]groupVerdict, 0, totalGroups)
	if s.eager {
		for _, wg := range s.perWalk {
			verdicts = append(verdicts, wg.verdicts...)
		}
	} else {
		groups := make([]*Group, 0, totalGroups)
		for _, wg := range s.perWalk {
			groups = append(groups, wg.groups...)
		}
		opt := s.opt
		if lifetimes != nil {
			opt.LifetimeOf = lifetimes.Lifetime
		}
		verdicts = verdicts[:totalGroups]
		err := parallel.ForEachTimedCtx(ctx, len(groups), opt.Parallelism, func(i int) {
			verdicts[i] = classifyGroup(groups[i], opt, s.include)
		}, s.observe)
		if err != nil {
			return nil, stats, err
		}
	}

	cases := reduceVerdicts(verdicts, &stats, s.opt.Telemetry.Registry())
	return cases, stats, nil
}
