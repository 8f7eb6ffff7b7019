// Package crawler implements CrumbCruncher's measurement crawl: four
// synchronized crawlers (Safari-1, Safari-2, Chrome-3 in lockstep plus the
// trailing repeat crawler Safari-1R), a central controller that picks
// the element all crawlers click using the paper's three matching
// heuristics (§3.3), ten-step random walks from seeder domains (§3.1), and
// the dataset of cookies, localStorage and web requests the analysis
// pipeline consumes.
package crawler

import (
	"time"

	"crumbcruncher/internal/browser"
)

// Crawler names, as in the paper (§3.2).
const (
	Safari1  = "Safari-1"
	Safari2  = "Safari-2"
	Chrome3  = "Chrome-3"
	Safari1R = "Safari-1R"
)

// ParallelCrawlers are the three crawlers the controller synchronizes,
// in the order a walk drives them; Safari-1R trails Safari-1 and is not
// part of the controller's choice.
var ParallelCrawlers = []string{Safari1, Safari2, Chrome3}

// AllCrawlers lists all four crawlers.
var AllCrawlers = []string{Safari1, Safari2, Chrome3, Safari1R}

// SameProfile reports whether two crawlers simulate the same user.
func SameProfile(a, b string) bool {
	if a == b {
		return true
	}
	return (a == Safari1 && b == Safari1R) || (a == Safari1R && b == Safari1)
}

// ProfileOf maps a crawler name to its simulated-user label within a walk.
func ProfileOf(crawler string) string {
	if crawler == Safari1R {
		return Safari1
	}
	return crawler
}

// CookieRecord is a recorded first-party cookie.
type CookieRecord struct {
	Name    string    `json:"name"`
	Value   string    `json:"value"`
	Domain  string    `json:"domain"`
	Created time.Time `json:"created"`
	Expires time.Time `json:"expires,omitempty"`
}

// Snapshot is the first-party storage state of a page, recorded at each
// crawl step (§3.1: "all first-party cookies, local storage values").
type Snapshot struct {
	URL     string            `json:"url"`
	Cookies []CookieRecord    `json:"cookies,omitempty"`
	Local   map[string]string `json:"local,omitempty"`
}

// StepOutcome classifies how a synchronized step ended.
type StepOutcome string

const (
	// OutcomeOK is a fully successful, synchronized step.
	OutcomeOK StepOutcome = "ok"
	// OutcomeConnectError is a network failure reaching the site (the
	// paper's 3.3%).
	OutcomeConnectError StepOutcome = "connect_error"
	// OutcomeNoCommonElement means the controller found no element
	// present on all three crawlers (the paper's 7.6%).
	OutcomeNoCommonElement StepOutcome = "no_common_element"
	// OutcomeDivergent means the clicked elements led to different
	// registered FQDNs (the paper's 1.8%); the step's data is still
	// analysed.
	OutcomeDivergent StepOutcome = "divergent_landing"
	// OutcomeClickFailed means a crawler's click could not produce a
	// navigation (e.g. an iframe without a loadable ad).
	OutcomeClickFailed StepOutcome = "click_failed"
)

// CrawlerStep is one crawler's record of one step.
type CrawlerStep struct {
	Crawler  string `json:"crawler"`
	Profile  string `json:"profile"`
	StartURL string `json:"start_url"`
	// Before is the originator's first-party storage before the click.
	Before Snapshot `json:"before"`
	// ClickIndex is the clicked element's index in this crawler's
	// clickable list (-1 when nothing was clicked).
	ClickIndex int `json:"click_index"`
	// Clicked describes the clicked element.
	Clicked *Element `json:"clicked,omitempty"`
	// NavChain is the navigation redirect chain the click produced,
	// ending at the landing page.
	NavChain []browser.Hop `json:"nav_chain,omitempty"`
	// Requests are all web requests observed during the step (click
	// navigation hops, landing-page subframes and beacons).
	Requests []browser.RequestRecord `json:"requests,omitempty"`
	// LandedURL is the final page URL.
	LandedURL string `json:"landed_url,omitempty"`
	// After is the landing page's first-party storage after load.
	After Snapshot `json:"after"`
	// Fail describes this crawler's individual failure, if any.
	Fail string `json:"fail,omitempty"`
}

// Step is one synchronized step of a walk.
type Step struct {
	Walk    int                     `json:"walk"`
	Index   int                     `json:"index"`
	Outcome StepOutcome             `json:"outcome"`
	Records map[string]*CrawlerStep `json:"records"`
}

// Walk is one ten-step random walk from a seeder domain.
type Walk struct {
	Index  int     `json:"index"`
	Seeder string  `json:"seeder"`
	Steps  []*Step `json:"steps"`
	// SeedLoad captures each crawler's requests and storage after
	// loading the seeder page itself (before the first click).
	SeedLoad map[string]*CrawlerStep `json:"seed_load,omitempty"`
	// Ended describes why the walk stopped before its full length.
	Ended StepOutcome `json:"ended,omitempty"`
	// Degraded quarantines a walk that was cut short by exhausted
	// transport failures or a crawler panic, recording why; its data is
	// still analysed.
	Degraded string `json:"degraded,omitempty"`
	// Skipped marks a walk that never started because the crawl was
	// cancelled; resumed crawls re-run skipped walks.
	Skipped bool `json:"skipped,omitempty"`
}

// Dataset is a complete crawl.
type Dataset struct {
	Seed     int64    `json:"seed"`
	Crawlers []string `json:"crawlers"`
	Walks    []*Walk  `json:"walks"`
}

// WalkCount returns the number of recorded walks.
func (d *Dataset) WalkCount() int { return len(d.Walks) }

// ForEachWalk calls fn for every walk in recorded order, stopping at
// the first error. It implements the walk-source contract the analysis
// layer shares with store-backed datasets.
func (d *Dataset) ForEachWalk(fn func(*Walk) error) error {
	for _, w := range d.Walks {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

// Walk returns the walk with the given index, or nil when the dataset
// has no such walk. Datasets record walks at their index position, but
// a degraded or filtered dataset may not, so the position is verified.
func (d *Dataset) Walk(idx int) *Walk {
	if idx >= 0 && idx < len(d.Walks) && d.Walks[idx] != nil && d.Walks[idx].Index == idx {
		return d.Walks[idx]
	}
	for _, w := range d.Walks {
		if w.Index == idx {
			return w
		}
	}
	return nil
}

// StepCount returns the total number of attempted steps.
func (d *Dataset) StepCount() int {
	n := 0
	for _, w := range d.Walks {
		n += len(w.Steps)
	}
	return n
}

// OutcomeCounts tallies step outcomes — the failure-rate table of §3.3.
func (d *Dataset) OutcomeCounts() map[StepOutcome]int {
	out := make(map[StepOutcome]int)
	for _, w := range d.Walks {
		for _, s := range w.Steps {
			out[s.Outcome]++
		}
	}
	return out
}
