package analysis

import (
	"strings"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/tokens"
)

// TokenSource classifies where a confirmed UID was sitting on the
// originator before it crossed contexts (§3.6: tokens are extracted from
// cookies, local storage, and query parameters; they are "not required to
// appear as cookies or local storage values").
type TokenSource string

// The §3.6 token sources.
const (
	// SourceCookie: the value sat in the originator's first-party
	// cookies (the decorator-script pattern).
	SourceCookie TokenSource = "originator cookie"
	// SourceLocalStorage: the value sat in the originator's first-party
	// localStorage.
	SourceLocalStorage TokenSource = "originator localStorage"
	// SourceQueryOnly: the value appeared only in navigation URLs (e.g.
	// ad-exchange partition IDs injected server-side).
	SourceQueryOnly TokenSource = "query parameters only"
)

// StorageSourceBreakdown classifies each confirmed UID by originator-side
// provenance, cross-referencing the crawl's pre-click storage snapshots.
// Cases arrive in walk order and many share a walk, so the last fetched
// walk is reused: a store-backed source decodes each walk once.
func (a *Analysis) StorageSourceBreakdown() map[TokenSource]int {
	out := map[TokenSource]int{}
	var w *crawler.Walk
	fetched := -1
	for _, c := range a.cases {
		cand := c.Candidates[0]
		if cand.Walk != fetched {
			w, fetched = a.src.Walk(cand.Walk), cand.Walk
		}
		out[sourceOfCase(recordFor(w, cand), cand)]++
	}
	return out
}

func sourceOfCase(rec *crawler.CrawlerStep, cand *tokens.Candidate) TokenSource {
	if rec == nil {
		return SourceQueryOnly
	}
	for _, ck := range rec.Before.Cookies {
		if valueContains(ck.Value, cand.Value) {
			return SourceCookie
		}
	}
	for _, v := range rec.Before.Local {
		if valueContains(v, cand.Value) {
			return SourceLocalStorage
		}
	}
	return SourceQueryOnly
}

// recordFor finds the crawler record behind a candidate in its walk.
func recordFor(w *crawler.Walk, cand *tokens.Candidate) *crawler.CrawlerStep {
	if w == nil {
		return nil
	}
	if cand.Step < 1 || cand.Step > len(w.Steps) {
		return nil
	}
	return w.Steps[cand.Step-1].Records[cand.Crawler]
}

func valueContains(stored, token string) bool {
	return stored == token || strings.Contains(stored, token)
}

// StepFailureRow is one row of the §3.3 independence check: failure rates
// at a given step index of the walk.
type StepFailureRow struct {
	Step            int
	Attempts        int
	NoCommonElement float64
	Divergent       float64
	ConnectError    float64
}

// FailuresByStep tallies failure rates per walk-step index. The paper
// expects these "to be independent of the step of the random walk"
// (§3.3); the calibration harness and tests verify no strong trend.
func (a *Analysis) FailuresByStep() []StepFailureRow {
	counts := a.Tally().stepOutcomes
	maxStep := 0
	for i := range counts {
		maxStep = max(maxStep, i)
	}
	out := make([]StepFailureRow, 0, maxStep)
	for i := 1; i <= maxStep; i++ {
		m := counts[i]
		total := 0
		for _, n := range m {
			total += n
		}
		row := StepFailureRow{Step: i, Attempts: total}
		if total > 0 {
			row.NoCommonElement = float64(m[crawler.OutcomeNoCommonElement]) / float64(total)
			row.Divergent = float64(m[crawler.OutcomeDivergent]) / float64(total)
			row.ConnectError = float64(m[crawler.OutcomeConnectError]) / float64(total)
		}
		out = append(out, row)
	}
	return out
}
