package analysis

import "crumbcruncher/internal/crawler"

// Tally is the one per-walk scan behind every figure that counts over
// walk records rather than paths or cases: the walk and step totals,
// the per-step outcome table (FailureRates, FailuresByStep), the §3.3
// attempted and failed sites (FailureRates) and the request-level
// recovered/unreachable split (Resilience). Every field is a count or a
// set, so tallies over disjoint walks merge to the same result in any
// order: the analysis engine keeps one per worker and merges them at
// its drain, and the figures never re-read the walks for these numbers.
type Tally struct {
	walks int
	// stepOutcomes counts step outcomes per walk-step index.
	stepOutcomes map[int]map[crawler.StepOutcome]int
	// sitesAttempted and sitesFailed are Safari-1's distinct registered
	// domains attempted, and those whose connection failed.
	sitesAttempted, sitesFailed set
	// domainsOK and domainsFailed are the registered domains with at
	// least one answered and one failed request, across every crawler.
	domainsOK, domainsFailed set
	// retried counts recorded requests beyond a first attempt.
	retried int
}

type set map[string]struct{}

func (s set) union(o set) {
	for k := range o {
		s[k] = struct{}{}
	}
}

// NewTally returns an empty tally.
func NewTally() *Tally {
	return &Tally{
		stepOutcomes:   map[int]map[crawler.StepOutcome]int{},
		sitesAttempted: set{},
		sitesFailed:    set{},
		domainsOK:      set{},
		domainsFailed:  set{},
	}
}

// Add folds one walk into the tally. A Tally is not safe for
// concurrent use; give each goroutine its own and Merge them.
func (t *Tally) Add(w *crawler.Walk) {
	t.walks++
	for _, s := range w.Steps {
		m := t.stepOutcomes[s.Index]
		if m == nil {
			m = map[crawler.StepOutcome]int{}
			t.stepOutcomes[s.Index] = m
		}
		m[s.Outcome]++
	}

	// §3.3 sites: Safari-1's seed load and every step it landed or
	// failed to connect on.
	if rec := w.SeedLoad[crawler.Safari1]; rec != nil {
		t.visitSite(rec.StartURL, isConnectFail(rec.Fail))
	}
	for _, s := range w.Steps {
		rec := s.Records[crawler.Safari1]
		if rec == nil {
			continue
		}
		if rec.LandedURL != "" {
			t.visitSite(rec.LandedURL, false)
		} else if isConnectFail(rec.Fail) && len(rec.NavChain) > 0 {
			t.visitSite(rec.NavChain[len(rec.NavChain)-1].URL, true)
		}
	}

	// Resilience: every crawler's request log.
	for _, rec := range w.SeedLoad {
		t.scanRequests(rec)
	}
	for _, s := range w.Steps {
		for _, rec := range s.Records {
			t.scanRequests(rec)
		}
	}
}

func (t *Tally) visitSite(raw string, fail bool) {
	d := regOf(raw)
	if d == "" {
		return
	}
	t.sitesAttempted[d] = struct{}{}
	if fail {
		t.sitesFailed[d] = struct{}{}
	}
}

func (t *Tally) scanRequests(rec *crawler.CrawlerStep) {
	if rec == nil {
		return
	}
	for _, req := range rec.Requests {
		d := regOf(req.URL)
		if d == "" {
			continue
		}
		if req.Attempt > 0 {
			t.retried++
		}
		if requestFailed(req.Err, req.Status) {
			t.domainsFailed[d] = struct{}{}
		} else if req.Status > 0 {
			t.domainsOK[d] = struct{}{}
		}
	}
}

// Merge folds o into t. The result does not depend on merge order.
func (t *Tally) Merge(o *Tally) {
	t.walks += o.walks
	for step, om := range o.stepOutcomes {
		m := t.stepOutcomes[step]
		if m == nil {
			m = map[crawler.StepOutcome]int{}
			t.stepOutcomes[step] = m
		}
		for outcome, n := range om {
			m[outcome] += n
		}
	}
	t.sitesAttempted.union(o.sitesAttempted)
	t.sitesFailed.union(o.sitesFailed)
	t.domainsOK.union(o.domainsOK)
	t.domainsFailed.union(o.domainsFailed)
	t.retried += o.retried
}

// steps returns the total step count and the outcome counts over all
// steps.
func (t *Tally) steps() (int, map[crawler.StepOutcome]int) {
	total := 0
	counts := map[crawler.StepOutcome]int{}
	for _, m := range t.stepOutcomes {
		for outcome, n := range m {
			counts[outcome] += n
			total += n
		}
	}
	return total, counts
}
