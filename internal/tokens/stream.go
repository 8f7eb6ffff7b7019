package tokens

import (
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/intern"
	"crumbcruncher/internal/telemetry"
)

// WalkTokens is one walk's contribution to the token pipeline: the
// walk's reconstructed navigation paths and the candidates found on
// them. It is the unit the streaming engine computes as each walk
// finishes and merges at drain time.
type WalkTokens struct {
	Paths      []*Path
	Candidates []*Candidate
}

// Accumulator collects per-walk token extraction incrementally for the
// streaming engine. Each walk is processed independently (AddWalk on
// distinct indices may run concurrently from several workers) and Drain
// merges the per-walk results in walk-index order — the same order the
// batch entry points (PathsFromDatasetCtx, AllCandidatesCtx) produce, so
// the merged output is bit-identical to the batch pass.
type Accumulator struct {
	names       []string
	tel         *telemetry.Telemetry
	in          *intern.Interner
	pathHist    *telemetry.Histogram
	candHist    *telemetry.Histogram
	perPathHist *telemetry.Histogram
	perWalk     []WalkTokens
}

// NewAccumulator sizes an accumulator for the given walk count.
// crawlers defaults to all four. seed salts the accumulator's private
// string interner (shared by this accumulator's walks, never across
// runs); it does not influence results.
func NewAccumulator(seed int64, walks int, crawlers []string, tel *telemetry.Telemetry) *Accumulator {
	names := crawlers
	if len(names) == 0 {
		names = crawler.AllCrawlers
	}
	reg := tel.Registry()
	return &Accumulator{
		names:       names,
		tel:         tel,
		in:          intern.New(seed),
		pathHist:    reg.Histogram("tokens.path_shard_us"),
		candHist:    reg.Histogram("tokens.candidate_shard_us"),
		perPathHist: reg.Histogram("tokens.candidates_per_path"),
		perWalk:     make([]WalkTokens, walks),
	}
}

// AddWalk reconstructs walk w's navigation paths, finds their
// candidates, stores the result at w.Index and returns it. The per-walk
// computation is exactly the batch pipeline's per-walk/per-path work.
func (a *Accumulator) AddWalk(w *crawler.Walk) WalkTokens {
	var sw telemetry.Stopwatch
	if a.tel != nil {
		sw = telemetry.StartStopwatch()
	}
	wt := WalkTokens{Paths: pathsFromWalk(w, a.names, a.in)}
	if a.tel != nil {
		a.pathHist.Observe(sw.ElapsedMicros())
		sw = telemetry.StartStopwatch()
	}
	for _, p := range wt.Paths {
		cs := FindCandidates(p)
		a.perPathHist.Observe(int64(len(cs)))
		wt.Candidates = append(wt.Candidates, cs...)
	}
	if a.tel != nil {
		a.candHist.Observe(sw.ElapsedMicros())
	}
	a.perWalk[w.Index] = wt
	return wt
}

// Drain concatenates the per-walk paths and candidates in walk-index
// order and bumps the same tokens.* totals the batch entry points
// report.
func (a *Accumulator) Drain() ([]*Path, []*Candidate) {
	totalPaths, totalCands := 0, 0
	for _, wt := range a.perWalk {
		totalPaths += len(wt.Paths)
		totalCands += len(wt.Candidates)
	}
	paths := make([]*Path, 0, totalPaths)
	cands := make([]*Candidate, 0, totalCands)
	for _, wt := range a.perWalk {
		paths = append(paths, wt.Paths...)
		cands = append(cands, wt.Candidates...)
	}
	reg := a.tel.Registry()
	reg.Counter("tokens.paths").Add(int64(totalPaths))
	reg.Counter("tokens.candidates").Add(int64(totalCands))
	return paths, cands
}
