package analysis

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/crawler"
)

// tallyWalks builds walks with every kind of record the tally reads:
// landed and connect-failed steps, retried requests, and domains that
// recover, never answer, or always answer.
func tallyWalks() []*crawler.Walk {
	var walks []*crawler.Walk
	for i := 0; i < 6; i++ {
		w := &crawler.Walk{Index: i, SeedLoad: map[string]*crawler.CrawlerStep{
			crawler.Safari1: {StartURL: fmt.Sprintf("http://seed-%d.com/", i%3)},
		}}
		for step := 1; step <= 3; step++ {
			rec := &crawler.CrawlerStep{Requests: []browser.RequestRecord{
				{URL: "http://flaky.net/a", Err: "connect: refused"},
				{URL: "http://flaky.net/a", Status: 200, Attempt: 1},
				{URL: fmt.Sprintf("http://down-%d.org/", i%2), Err: "connect: refused"},
				{URL: "http://up.com/", Status: 200},
			}}
			outcome := crawler.OutcomeOK
			switch (i + step) % 3 {
			case 0:
				rec.Fail = "connect: refused"
				rec.NavChain = []browser.Hop{{URL: fmt.Sprintf("http://gone-%d.com/", i)}}
				outcome = crawler.OutcomeConnectError
			case 1:
				rec.LandedURL = fmt.Sprintf("http://land-%d.com/", step)
			default:
				outcome = crawler.OutcomeNoCommonElement
			}
			w.Steps = append(w.Steps, &crawler.Step{Walk: i, Index: step, Outcome: outcome,
				Records: map[string]*crawler.CrawlerStep{crawler.Safari1: rec, crawler.Chrome3: rec}})
		}
		walks = append(walks, w)
	}
	return walks
}

// TestTallyMergeMatchesOnePass checks the engine's contract: tallies
// over any split of the walks, merged in any order, give the figures a
// single pass over the dataset gives.
func TestTallyMergeMatchesOnePass(t *testing.T) {
	walks := tallyWalks()
	ds := &crawler.Dataset{Walks: walks}
	whole := New(ds, nil, nil)

	parts := []*Tally{NewTally(), NewTally(), NewTally()}
	for i := len(walks) - 1; i >= 0; i-- {
		parts[i%len(parts)].Add(walks[i])
	}
	merged := parts[2]
	merged.Merge(parts[0])
	merged.Merge(parts[1])
	split, err := NewFromTally(context.Background(), ds, merged, nil, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	if whole.WalkCount() != len(walks) || split.WalkCount() != len(walks) {
		t.Fatalf("walks = %d / %d, want %d", whole.WalkCount(), split.WalkCount(), len(walks))
	}
	if whole.StepCount() != 3*len(walks) || split.StepCount() != whole.StepCount() {
		t.Fatalf("steps = %d / %d, want %d", whole.StepCount(), split.StepCount(), 3*len(walks))
	}
	if a, b := whole.FailureRates(), split.FailureRates(); a != b || a.SitesAttempted == 0 || a.ConnectError == 0 {
		t.Fatalf("failure rates: one pass %+v, merged %+v", a, b)
	}
	if a, b := whole.Resilience(), split.Resilience(); a != b || a.SitesRecovered != 1 || a.SitesUnreachable != 2 || a.RetriedRequests != 2*3*len(walks) {
		t.Fatalf("resilience: one pass %+v, merged %+v", a, b)
	}
	if a, b := whole.FailuresByStep(), split.FailuresByStep(); !reflect.DeepEqual(a, b) || len(a) != 3 {
		t.Fatalf("failures by step: one pass %+v, merged %+v", a, b)
	}
}
