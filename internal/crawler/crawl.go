package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/storage"
	"crumbcruncher/internal/telemetry"
)

// Config configures a crawl.
type Config struct {
	// Seed drives the controller's choices and must match the world's
	// seed so client-side scripts derive the same identifiers as the
	// servers.
	Seed int64
	// Network is the (synthetic) web to crawl.
	Network *netsim.Network
	// Seeders are the walk starting domains, most popular first (the
	// Tranco list of §3.1).
	Seeders []string
	// Walks is the number of random walks; walk i starts at
	// Seeders[i mod len].
	Walks int
	// StepsPerWalk is the walk length (paper: 10).
	StepsPerWalk int
	// Parallelism is the number of walks crawled concurrently (the
	// paper's twelve EC2 instances). A walk runs on one goroutine with
	// its own virtual clock, so every walk record — timestamps included
	// — is a pure function of the configuration and the walk index, at
	// any Parallelism.
	Parallelism int
	// DwellSeconds is the virtual time spent on each landing page
	// (paper: 10 seconds of request recording).
	DwellSeconds int
	// IframeBias is the controller's preference for iframes over
	// cross-domain anchors (0: the 0.3 default; set NoIframes for a true
	// zero).
	IframeBias float64
	// NoIframes forces a zero iframe preference. The IframeBias zero
	// value selects the default bias, so an ablation explicitly
	// requesting no iframe preference must set this instead.
	NoIframes bool
	// Heuristics selects the element-matching heuristics (ablations).
	Heuristics Heuristics
	// Machine is the fingerprint surface shared by all four crawlers
	// (they run "on one machine", §3.5).
	Machine string
	// Machines, when > 1, spreads walks across that many crawl machines
	// (the paper's twelve EC2 instances, §3.8). All four crawlers of a
	// walk share one machine — the §3.5 condition — but fingerprint
	// surfaces differ across instances.
	Machines int
	// Telemetry, when non-nil, receives walk/step spans and crawl
	// counters and is handed down to every browser. Observation only;
	// nil costs nothing.
	Telemetry *telemetry.Telemetry
	// Retry is the navigation retry policy. The zero value performs no
	// retries (the pre-resilience behaviour); backoff is slept on the
	// walk's virtual clock, so retries cost no wall time.
	Retry resilience.Policy
	// Log, when non-nil, records each completed walk, and walks it
	// already holds are resumed instead of crawled, so an interrupted
	// crawl continues without redoing finished work. Runtime wiring.
	Log WalkLog `json:"-"`
	// OnWalkComplete, when non-nil, is invoked after each walk is
	// recorded (tests use it to cancel crawls at precise points).
	OnWalkComplete func(*Walk) `json:"-"`
	// WalkSink, when non-nil, receives every walk the crawl produces —
	// freshly completed, resumed from the log, and skipped alike — as
	// soon as it enters the dataset, instead of the caller waiting for
	// the monolithic dataset. Completed walks are delivered from their
	// walk goroutines after logging and OnWalkComplete; the
	// call may block, which is how the streaming engine's bounded
	// channel applies backpressure to the crawl. Runtime wiring.
	WalkSink func(*Walk) `json:"-"`
}

// WalkLog is where a crawl records each finished walk and where a
// resumed crawl finds the walks an interrupted one already finished. A
// run store is the implementation (see core).
type WalkLog interface {
	// Recorded returns walk idx if the log holds it, nil if not.
	Recorded(idx int) (*Walk, error)
	// Append records a finished walk.
	Append(w *Walk) error
}

// withDefaults fills zero values.
func (cfg Config) withDefaults() Config {
	if cfg.StepsPerWalk <= 0 {
		cfg.StepsPerWalk = 10
	}
	if cfg.Walks <= 0 {
		cfg.Walks = len(cfg.Seeders)
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.DwellSeconds <= 0 {
		cfg.DwellSeconds = 10
	}
	if cfg.NoIframes {
		cfg.IframeBias = 0
	} else if cfg.IframeBias == 0 {
		cfg.IframeBias = 0.3
	}
	if cfg.Heuristics == (Heuristics{}) {
		cfg.Heuristics = AllHeuristics
	}
	if cfg.Machine == "" {
		cfg.Machine = "crawl-machine-1"
	}
	return cfg
}

// crawlMetrics caches the crawl-layer instruments so hot paths skip the
// registry map. All fields are nil (and every method a no-op) when the
// crawl runs without telemetry.
type crawlMetrics struct {
	tel           *telemetry.Telemetry
	walksDone     *telemetry.Counter
	walksDegraded *telemetry.Counter
	walksResumed  *telemetry.Counter
	walksSkipped  *telemetry.Counter
	steps         *telemetry.Counter
	stepFailures  *telemetry.Counter
	clicks        *telemetry.Counter
	iframeClicks  *telemetry.Counter
	renavigations *telemetry.Counter
}

func newCrawlMetrics(t *telemetry.Telemetry) *crawlMetrics {
	reg := t.Registry()
	return &crawlMetrics{
		tel:           t,
		walksDone:     reg.Counter("crawler.walks_done"),
		walksDegraded: reg.Counter("crawler.walks_degraded"),
		walksResumed:  reg.Counter("crawler.walks_resumed"),
		walksSkipped:  reg.Counter("crawler.walks_skipped"),
		steps:         reg.Counter("crawler.steps"),
		stepFailures:  reg.Counter("crawler.step_failures"),
		clicks:        reg.Counter("crawler.clicks"),
		iframeClicks:  reg.Counter("crawler.iframe_clicks"),
		renavigations: reg.Counter("crawler.renavigations"),
	}
}

// finishStep closes a step span, failed with the first parallel
// crawler's failure if any, and bumps the step counters once per
// parallel crawler record.
func (cm *crawlMetrics) finishStep(sp *telemetry.Active, recs []*CrawlerStep) {
	var fail error
	for _, rec := range recs {
		cm.steps.Inc()
		if rec.Fail != "" {
			cm.stepFailures.Inc()
			if fail == nil {
				fail = errors.New(rec.Fail)
			}
		}
	}
	sp.EndErr(fail)
}

// CrawlContext runs the full measurement crawl under ctx and returns
// the dataset. Cancellation is graceful: no
// new walks launch, in-flight walks drain to completion (and are
// logged), unstarted walks are marked Skipped, and the partial dataset
// is returned alongside ctx's error. A walk log that fails to read or
// record a walk stops the crawl the same way and its error is returned.
func CrawlContext(ctx context.Context, cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Network == nil {
		return nil, errors.New("crawler: Config.Network is required")
	}
	if len(cfg.Seeders) == 0 {
		return nil, errors.New("crawler: Config.Seeders is empty")
	}

	ctrl := NewController(cfg.Seed, cfg.Heuristics, cfg.IframeBias)

	cm := newCrawlMetrics(cfg.Telemetry)
	cfg.Telemetry.Registry().Gauge("crawler.walks_total").Set(int64(cfg.Walks))

	rm := resilience.NewMetrics(cfg.Telemetry.Registry())

	var (
		logOnce sync.Once
		logErr  error
		stop    atomic.Bool
	)
	failLog := func(idx int, err error) {
		logOnce.Do(func() { logErr = fmt.Errorf("crawler: walk log: walk %d: %w", idx, err) })
		stop.Store(true)
	}

	// Work-stealing dispatch: a fixed pool of Parallelism workers claims
	// walk indices from a shared atomic counter, so min(P, walks)
	// goroutines run and a worker that finishes (or hits a resumed walk)
	// immediately steals the next index. Scheduling cannot reach the
	// results: every walk lands in its pre-sized ds.Walks[idx] slot and
	// runs on its worker with its own clock.
	ds := &Dataset{Seed: cfg.Seed, Crawlers: AllCrawlers, Walks: make([]*Walk, cfg.Walks)}
	workers := cfg.Parallelism
	if workers > cfg.Walks {
		workers = cfg.Walks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= cfg.Walks {
					return
				}
				seeder := cfg.Seeders[idx%len(cfg.Seeders)]
				if cfg.Log != nil && !stop.Load() {
					w, err := cfg.Log.Recorded(idx)
					if err != nil {
						failLog(idx, err)
					} else if w != nil {
						ds.Walks[idx] = w
						cm.walksResumed.Inc()
						cm.walksDone.Inc()
						if cfg.WalkSink != nil {
							cfg.WalkSink(w)
						}
						continue
					}
				}
				if ctx.Err() != nil || stop.Load() {
					w := &Walk{Index: idx, Seeder: seeder, Skipped: true}
					ds.Walks[idx] = w
					cm.walksSkipped.Inc()
					if cfg.WalkSink != nil {
						cfg.WalkSink(w)
					}
					continue
				}
				wcfg := cfg
				if cfg.Machines > 1 {
					wcfg.Machine = fmt.Sprintf("%s-inst%d", cfg.Machine, idx%cfg.Machines)
				}
				sp := cm.tel.StartSpan("crawler", "walk").
					Attr("walk", strconv.Itoa(idx)).Attr("seeder", seeder)
				w := runWalk(wcfg, ctrl, idx, seeder, cm, rm)
				ds.Walks[idx] = w
				if w.Ended != "" {
					sp.Attr("ended", string(w.Ended))
				}
				sp.Attr("steps", strconv.Itoa(len(w.Steps))).End()
				cm.walksDone.Inc()
				if cfg.Log != nil {
					if err := cfg.Log.Append(w); err != nil {
						failLog(idx, err)
					}
				}
				if cfg.OnWalkComplete != nil {
					cfg.OnWalkComplete(w)
				}
				if cfg.WalkSink != nil {
					cfg.WalkSink(w)
				}
			}
		}()
	}
	wg.Wait()
	if logErr != nil {
		return ds, logErr
	}
	return ds, ctx.Err()
}

// appendReason joins quarantine notes.
func appendReason(existing, add string) string {
	if existing == "" {
		return add
	}
	return existing + "; " + add
}

// uaFor returns the spoofed User-Agent for a crawler (§3.4).
func uaFor(name string) string {
	if name == Chrome3 {
		return browser.DefaultChromeUA
	}
	return browser.DefaultSafariUA
}

// policyFor returns the storage policy: the Safari crawlers simulate
// partitioned storage; Chrome-3 runs with third-party cookies disabled
// (§3.4, §3.5).
func policyFor(name string) storage.Policy {
	if name == Chrome3 {
		return storage.Blocked
	}
	return storage.Partitioned
}

// putStep stores a crawler's record for step stepIdx (1-based),
// materialising any steps before it.
func putStep(w *Walk, stepIdx int, name string, rec *CrawlerStep) {
	for len(w.Steps) < stepIdx {
		w.Steps = append(w.Steps, &Step{
			Walk:    w.Index,
			Index:   len(w.Steps) + 1,
			Records: make(map[string]*CrawlerStep),
		})
	}
	w.Steps[stepIdx-1].Records[name] = rec
}

// runWalk executes one walk on the calling goroutine. The walk has its
// own virtual clock, shared by its four browsers, so its record depends
// on the configuration and its index alone.
func runWalk(cfg Config, ctrl *Controller, idx int, seeder string, cm *crawlMetrics, rm *resilience.Metrics) *Walk {
	w := &Walk{Index: idx, Seeder: seeder, SeedLoad: make(map[string]*CrawlerStep)}
	wk := &walker{cfg: cfg, ctrl: ctrl, cm: cm, rm: rm, w: w, clock: netsim.NewVirtualClock()}
	newTab := func(name string) *tab {
		return &tab{name: name, b: browser.New(browser.Config{
			Seed:      cfg.Seed,
			ProfileID: fmt.Sprintf("w%d-%s", idx, ProfileOf(name)),
			ClientID:  fmt.Sprintf("w%d-%s", idx, name),
			Machine:   cfg.Machine,
			UserAgent: uaFor(name),
			Policy:    policyFor(name),
			Network:   cfg.Network,
			Clock:     wk.clock,
			Telemetry: cfg.Telemetry,
		})}
	}
	for i, name := range ParallelCrawlers {
		wk.tabs[i] = newTab(name)
	}
	wk.trail = newTab(Safari1R)
	wk.run()
	for _, t := range wk.tabs {
		t.setPage(nil)
	}
	wk.trail.setPage(nil)

	// Derive step outcomes and the walk's end reason.
	for _, s := range w.Steps {
		s.Outcome = deriveOutcome(s)
	}
	if n := len(w.Steps); n > 0 {
		if last := w.Steps[n-1]; last.Outcome != OutcomeOK {
			w.Ended = last.Outcome
		}
	}
	// A walk cut short by exhausted transport failures is quarantined
	// with the failing crawler's reason rather than ending silently.
	if w.Ended == OutcomeConnectError {
		last := w.Steps[len(w.Steps)-1]
		for _, name := range ParallelCrawlers {
			if rec := last.Records[name]; rec != nil && strings.HasPrefix(rec.Fail, "connect:") {
				w.Degraded = appendReason(w.Degraded, fmt.Sprintf("step %d %s: %s", last.Index, name, rec.Fail))
				break
			}
		}
	}
	if w.Degraded != "" {
		cm.walksDegraded.Inc()
	}
	return w
}

// deriveOutcome classifies a merged step from the parallel crawlers'
// records.
func deriveOutcome(s *Step) StepOutcome {
	connect, clickFail, noMatch, landed := 0, 0, 0, 0
	hosts := map[string]bool{}
	for _, name := range ParallelCrawlers {
		rec := s.Records[name]
		if rec == nil {
			continue
		}
		switch {
		case strings.HasPrefix(rec.Fail, "connect:"):
			connect++
		case rec.Fail == "no common element":
			noMatch++
		case rec.Fail != "":
			clickFail++
		default:
			landed++
			if u, err := url.Parse(rec.LandedURL); err == nil {
				hosts[u.Hostname()] = true
			}
		}
	}
	switch {
	case connect > 0:
		return OutcomeConnectError
	case noMatch > 0:
		return OutcomeNoCommonElement
	case clickFail > 0:
		return OutcomeClickFailed
	case landed == len(ParallelCrawlers) && len(hosts) == 1:
		return OutcomeOK
	default:
		return OutcomeDivergent
	}
}

// tab is one crawler within a walk: its browser and its live page.
type tab struct {
	name string
	b    *browser.Browser
	page *browser.Page
	// navErr is the navigation failure that most recently left the
	// crawler without a live page; a step that starts with no page
	// records it as its own failure.
	navErr error
}

// setPage makes p (nil for none) the tab's live page and releases the
// page it replaces, which nothing of the walk uses again: what the
// records keep of a page are strings, and Elements hold no DOM node.
func (t *tab) setPage(p *browser.Page) {
	t.page.Release()
	t.page = p
}

// walker drives one walk in lockstep, one phase at a time: the three
// parallel crawlers in ParallelCrawlers order, and Safari-1R repeating
// each of Safari-1's loads right after it (§3.2).
type walker struct {
	cfg   Config
	ctrl  *Controller
	cm    *crawlMetrics
	rm    *resilience.Metrics
	w     *Walk
	clock *netsim.VirtualClock
	tabs  [3]*tab // ParallelCrawlers order; tabs[0] is Safari-1
	trail *tab    // Safari-1R
}

// run crawls the seed loads and then the steps until the walk ends.
// Quarantine, don't crash: a panic stops the walk and degrades it, and
// the steps recorded so far are kept.
func (wk *walker) run() {
	defer func() {
		if p := recover(); p != nil {
			wk.w.Degraded = appendReason(wk.w.Degraded, fmt.Sprintf("panic: %v", p))
		}
	}()
	seedURL := "http://" + wk.w.Seeder + "/"
	for _, t := range wk.tabs {
		wk.seedLoad(t, seedURL)
		if t.name == Safari1 {
			wk.seedLoad(wk.trail, seedURL)
		}
	}
	for step := 1; step <= wk.cfg.StepsPerWalk; step++ {
		if !wk.step(step) {
			return
		}
	}
}

// retry runs op (which must return the page it produced) under the
// retry policy, stamping the attempt index on the browser for the fault
// injector; backoff advances the walk's clock.
func (wk *walker) retry(b *browser.Browser, key string, op func() (*browser.Page, error)) (*browser.Page, error) {
	var page *browser.Page
	err := resilience.Do(wk.clock, wk.cfg.Seed, key, wk.cfg.Retry, wk.rm, func(attempt int) error {
		b.SetAttempt(attempt)
		defer b.SetAttempt(0)
		p, err := op()
		if err == nil {
			page = p
		}
		return err
	})
	return page, err
}

// dwell spends the landing page's recording time (§3.1) on the walk's
// clock.
func (wk *walker) dwell() {
	wk.clock.Advance(time.Duration(wk.cfg.DwellSeconds) * time.Second)
}

// seedLoad navigates t to the walk's seeder and records the load.
func (wk *walker) seedLoad(t *tab, seedURL string) {
	page, err := wk.retry(t.b, fmt.Sprintf("seed/%d/%s", wk.w.Index, t.name), func() (*browser.Page, error) {
		return t.b.Navigate(seedURL, "")
	})
	rec := &CrawlerStep{
		Crawler:  t.name,
		Profile:  ProfileOf(t.name),
		StartURL: seedURL,
		Requests: t.b.Requests(),
	}
	if err != nil {
		rec.Fail = "connect: " + err.Error()
		t.navErr = err
	} else {
		rec.LandedURL = page.URLString()
		rec.After = takeSnapshot(t.b, page)
	}
	t.setPage(page)
	wk.w.SeedLoad[t.name] = rec
}

// step runs one synchronized step — every element list, the
// controller's choice, every click with its dwell, the landing
// comparison, Safari-1R's repeat — and reports whether the walk goes
// on.
func (wk *walker) step(step int) bool {
	idx := wk.w.Index
	sp := wk.cm.tel.StartSpan("crawler", "step").
		Attr("walk", strconv.Itoa(idx)).
		Attr("step", strconv.Itoa(step))
	recs := make([]*CrawlerStep, len(wk.tabs))
	lists := make(map[string][]Element, len(wk.tabs))
	for i, t := range wk.tabs {
		rec := &CrawlerStep{Crawler: t.name, Profile: ProfileOf(t.name), ClickIndex: -1}
		var els []Element
		switch {
		case t.page != nil:
			rec.StartURL = t.page.URLString()
			rec.Before = takeSnapshot(t.b, t.page)
			cs := t.b.Clickables(t.page)
			els = make([]Element, 0, len(cs))
			for _, c := range cs {
				els = append(els, elementFrom(c, t.b.CrossDomain(t.page, c)))
			}
		case t.navErr != nil:
			rec.Fail = "connect: " + t.navErr.Error()
		default:
			rec.Fail = "connect: no live page"
		}
		recs[i], lists[t.name] = rec, els
	}

	dec := wk.ctrl.decide(idx, step, lists)
	if !dec[Safari1].Found {
		// A crawler with no page submitted an empty list, which
		// guarantees no match: the walk ends here for everyone.
		for i, t := range wk.tabs {
			if t.page != nil {
				recs[i].Fail = "no common element"
			}
			putStep(wk.w, step, t.name, recs[i])
		}
		wk.cm.finishStep(sp, recs)
		// Safari-1R records Safari-1's failure, so the repeat-crawler
		// dataset has no holes.
		wk.trailFail(step, recs[0].Fail)
		return false
	}

	fqdns := make([]string, len(wk.tabs))
	for i, t := range wk.tabs {
		rec, d := recs[i], dec[t.name]
		rec.ClickIndex = d.Index
		if els := lists[t.name]; d.Index >= 0 && d.Index < len(els) {
			rec.Clicked = recorded(els[d.Index])
		}
		wk.cm.clicks.Inc()
		if rec.Clicked != nil && rec.Clicked.Kind == "iframe" {
			wk.cm.iframeClicks.Inc()
		}
		t.b.ResetRequests()
		from := t.page
		next, err := wk.retry(t.b, fmt.Sprintf("click/%d/%d/%s", idx, step, t.name), func() (*browser.Page, error) {
			return t.b.Click(from, d.Index)
		})
		t.setPage(next)
		if err != nil {
			if isConnectError(err) {
				rec.Fail = "connect: " + err.Error()
				t.navErr = err
			} else {
				rec.Fail = "click: " + err.Error()
			}
			var nav *browser.NavError
			if errors.As(err, &nav) {
				rec.NavChain = nav.Chain
			}
			rec.Requests = t.b.Requests()
			continue
		}
		wk.dwell()
		rec.NavChain = next.Chain
		rec.LandedURL = next.URLString()
		rec.Requests = t.b.Requests()
		rec.After = takeSnapshot(t.b, next)
		fqdns[i] = next.URL.Hostname()
	}
	if fqdns[0] != "" {
		sp.Attr("host", fqdns[0])
	}
	for i, t := range wk.tabs {
		putStep(wk.w, step, t.name, recs[i])
	}

	// Safari-1R repeats the step right after Safari-1 took it (§3.2).
	if recs[0].Clicked != nil {
		wk.repeat(step, recs[0].StartURL, lists[Safari1], dec[Safari1].Index)
	}
	wk.cm.finishStep(sp, recs)
	// A failed click lands nowhere (""), so the walk goes on only when
	// every click landed on one FQDN (§3.3).
	return fqdns[0] != "" && sameLanding(fqdns)
}

// trailFail records Safari-1R's step when Safari-1's step ended before
// any click.
func (wk *walker) trailFail(step int, reason string) {
	rec := &CrawlerStep{Crawler: Safari1R, Profile: ProfileOf(Safari1R), ClickIndex: -1, Fail: reason}
	if t := wk.trail; t.page != nil {
		rec.StartURL = t.page.URLString()
	}
	putStep(wk.w, step, Safari1R, rec)
}

// repeat is Safari-1R repeating Safari-1's step, providing the repeat
// observations that separate session IDs from UIDs (§3.7.1). It finds
// Safari-1's clicked element on its own page instance and clicks it.
// The two element lists are aligned in document order with the
// controller's matching heuristics — matching the single clicked
// element in isolation would confuse same-sized anchors, since
// heuristic 2 ignores the y-coordinate. Safari-1R repeats Safari-1's
// step, not its own history: if it drifted — say its previous ad click
// landed on a different site — it first re-navigates to Safari-1's
// start URL (its profile storage persists, so the revisit observations
// stay valid).
func (wk *walker) repeat(step int, startURL string, s1Elements []Element, clickedIdx int) {
	t, idx := wk.trail, wk.w.Index
	rec := &CrawlerStep{Crawler: Safari1R, Profile: ProfileOf(Safari1R), ClickIndex: -1}
	defer putStep(wk.w, step, Safari1R, rec)
	if t.page == nil || (startURL != "" && !sameURLSansQuery(t.page, startURL)) {
		wk.cm.renavigations.Inc()
		page, err := wk.retry(t.b, fmt.Sprintf("renav/%d/%d/%s", idx, step, Safari1R), func() (*browser.Page, error) {
			return t.b.Navigate(startURL, "")
		})
		t.setPage(page)
		if err != nil {
			rec.Fail = "connect: " + err.Error()
			rec.StartURL = startURL
			return
		}
	}
	rec.StartURL = t.page.URLString()
	rec.Before = takeSnapshot(t.b, t.page)

	cs := t.b.Clickables(t.page)
	own := make([]Element, 0, len(cs))
	for _, c := range cs {
		own = append(own, elementFrom(c, false))
	}
	match := -1
	if aligned := MatchPair(s1Elements, own, AllHeuristics); clickedIdx >= 0 && clickedIdx < len(aligned) {
		match = aligned[clickedIdx]
	}
	if match < 0 {
		rec.Fail = "repeat: element not found"
		t.setPage(nil)
		return
	}
	rec.ClickIndex = match
	t.b.ResetRequests()
	from := t.page
	next, err := wk.retry(t.b, fmt.Sprintf("click/%d/%d/%s", idx, step, Safari1R), func() (*browser.Page, error) {
		return t.b.Click(from, match)
	})
	t.setPage(next)
	rec.Requests = t.b.Requests()
	if err != nil {
		rec.Fail = "click: " + err.Error()
		return
	}
	wk.dwell()
	rec.NavChain = next.Chain
	rec.LandedURL = next.URLString()
	rec.After = takeSnapshot(t.b, next)
}

// takeSnapshot records the first-party storage of page's host.
func takeSnapshot(b *browser.Browser, page *browser.Page) Snapshot {
	host := page.URL.Hostname()
	snap := Snapshot{URL: page.URLString(), Local: b.Store().FirstPartyLocal(host)}
	// Snapshot at the virtual epoch so no cookie is hidden by expiry; the
	// records carry real creation/expiry times for lifetime analysis.
	for _, c := range b.Store().FirstPartyCookies(host, netsim.Epoch) {
		snap.Cookies = append(snap.Cookies, CookieRecord{
			Name: c.Name, Value: c.Value, Domain: c.Domain,
			Created: c.Created, Expires: c.Expires,
		})
	}
	return snap
}

// sameURLSansQuery compares page's URL with rawURL by host and path,
// ignoring query strings: the repeat crawler's landing URL legitimately
// differs from Safari-1's by its own UID values.
func sameURLSansQuery(page *browser.Page, rawURL string) bool {
	u, err := url.Parse(rawURL)
	if err != nil {
		return page.URLString() == rawURL
	}
	return page.URL.Host == u.Host && page.URL.Path == u.Path
}

// isConnectError distinguishes transport failures from click logic
// failures.
func isConnectError(err error) bool {
	var nav *browser.NavError
	if errors.As(err, &nav) {
		var nt *browser.ErrNoTarget
		return !errors.As(err, &nt)
	}
	return false
}
