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
	"crumbcruncher/internal/publicsuffix"
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
	// paper's twelve EC2 instances). Results are deterministic
	// regardless.
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
	// virtual clock, so retries cost no wall time.
	Retry resilience.Policy
	// Breaker configures per-registered-domain circuit breakers; the
	// zero value disables them. Breaker short-circuiting is
	// schedule-dependent at Parallelism > 1 (like the real crawl);
	// dataset byte-determinism with breakers on holds at Parallelism 1.
	Breaker resilience.BreakerConfig
	// Log, when non-nil, records each completed walk, and walks it
	// already holds are resumed instead of crawled, so an interrupted
	// crawl continues without redoing finished work. Runtime wiring.
	Log WalkLog `json:"-"`
	// BackoffSleep, when non-nil, is additionally invoked with every
	// backoff delay — a wall-clock hook tests use to prove that
	// schedules perturbed only in real time leave results identical.
	BackoffSleep func(time.Duration) `json:"-"`
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
	// Clock returns the latest virtual instant a recorded walk finished
	// at (zero for an empty log).
	Clock() time.Time
	// Record appends w, finished when the virtual clock read clock.
	Record(w *Walk, clock time.Time) error
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

// finishStep closes a step span and bumps the step counters from the
// record's outcome.
func (cm *crawlMetrics) finishStep(sp *telemetry.Active, rec *CrawlerStep) {
	cm.steps.Inc()
	if rec.Fail != "" {
		cm.stepFailures.Inc()
		sp.EndErr(errors.New(rec.Fail))
		return
	}
	sp.End()
}

// Crawl runs the full measurement crawl and returns the dataset.
func Crawl(cfg Config) (*Dataset, error) {
	return CrawlContext(context.Background(), cfg)
}

// CrawlContext runs the crawl under ctx. Cancellation is graceful: no
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

	ledger := newClockLedger(cfg.Network.Clock(), cfg.Walks)
	ctrl.afterBarrier = ledger.drain

	rt := &retrier{
		seed:     cfg.Seed,
		policy:   cfg.Retry,
		clock:    cfg.Network.Clock(),
		ledger:   ledger,
		sleep:    cfg.BackoffSleep,
		m:        resilience.NewMetrics(cfg.Telemetry.Registry()),
		breakers: cfg.Network.Breakers(),
	}
	if cfg.Breaker.Enabled() && rt.breakers == nil {
		psl := publicsuffix.Default()
		rt.breakers = resilience.NewBreakerSet(cfg.Breaker, cfg.Network.Clock(), func(host string) string {
			if d := psl.RegisteredDomain(host); d != "" {
				return d
			}
			return host
		}, cfg.Telemetry.Registry())
		cfg.Network.SetBreakers(rt.breakers)
	}

	// Resume: restore the virtual clock to the furthest instant the
	// interrupted crawl reached, so continued walks replay the
	// uninterrupted schedule (exactly, at Parallelism 1).
	if cfg.Log != nil {
		if t := cfg.Log.Clock(); !t.IsZero() {
			cfg.Network.Clock().AdvanceTo(t)
		}
	}
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
	// walk indices from a shared atomic counter. Compared with the old
	// goroutine-per-walk + semaphore scheme this spawns min(P, walks)
	// goroutines instead of one per walk, never blocks a dispatcher
	// goroutine on a semaphore, and lets a worker that finishes (or hits
	// a resumed walk) immediately steal the next index.
	// Determinism is untouched: every walk still lands in its pre-sized
	// ds.Walks[idx] slot, and all intra-walk virtual time flows through
	// the clockLedger's rendezvous barriers exactly as before.
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
				w := runWalk(wcfg, ctrl, idx, seeder, cm, rt)
				ds.Walks[idx] = w
				if w.Ended != "" {
					sp.Attr("ended", string(w.Ended))
				}
				sp.Attr("steps", strconv.Itoa(len(w.Steps))).End()
				cm.walksDone.Inc()
				if cfg.Log != nil {
					if err := cfg.Log.Record(w, cfg.Network.Clock().Now()); err != nil {
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

// clockLedger makes intra-walk virtual time schedule-independent. The
// three crawlers of a walk run concurrently and each owes the clock
// time — dwell after every landing, backoff between retry attempts. If
// each goroutine advanced the shared clock directly, the timestamps its
// peers stamp on in-flight requests would depend on goroutine
// interleaving and no two runs would produce byte-identical datasets.
// Instead, advances are deposited into a per-walk pending account and
// applied ("drained") only at points where no crawler of the walk is
// mid-request: inside the controller's rendezvous (the completing
// arrival drains while its peers are still blocked in their Submit
// calls) and at end of walk. The total time applied is the sum of
// deposits — commutative, hence identical under any schedule.
type clockLedger struct {
	clock   resilience.Clock
	pending []atomic.Int64
}

func newClockLedger(clock resilience.Clock, walks int) *clockLedger {
	return &clockLedger{clock: clock, pending: make([]atomic.Int64, walks)}
}

// drain applies a walk's pending time to the real clock.
func (l *clockLedger) drain(walk int) {
	if l == nil || walk < 0 || walk >= len(l.pending) {
		return
	}
	if d := l.pending[walk].Swap(0); d > 0 {
		l.clock.Advance(time.Duration(d))
	}
}

// walkClock is the resilience.Clock handed to one walk's crawlers:
// Advance defers into the walk's ledger account instead of moving the
// shared clock.
type walkClock struct {
	l    *clockLedger
	walk int
}

func (c walkClock) Now() time.Time { return c.l.clock.Now() }

func (c walkClock) Advance(d time.Duration) time.Time {
	if d > 0 {
		c.l.pending[c.walk].Add(int64(d))
	}
	return c.l.clock.Now()
}

// appendReason joins quarantine notes.
func appendReason(existing, add string) string {
	if existing == "" {
		return add
	}
	return existing + "; " + add
}

// retrier runs navigations under the crawl's retry policy and reports
// whole-sequence outcomes to the circuit breakers. Breaker state thus
// advances only on sequence boundaries — a transient domain that
// recovers within its sequence can never trip a breaker, keeping breaker
// decisions independent of how concurrent walks interleave.
type retrier struct {
	seed     int64
	policy   resilience.Policy
	clock    resilience.Clock
	ledger   *clockLedger
	sleep    func(time.Duration)
	m        *resilience.Metrics
	breakers *resilience.BreakerSet
}

// forWalk returns a copy whose clock defers advances into the walk's
// ledger account, so backoff sleeps never race against peer crawlers'
// request timestamps.
func (rt *retrier) forWalk(walk int) *retrier {
	if rt.ledger == nil {
		return rt
	}
	cp := *rt
	cp.clock = walkClock{l: rt.ledger, walk: walk}
	return &cp
}

// do runs op (which must return the page it produced) under the retry
// policy, stamping the attempt index on the browser for the fault
// injector, and reports the sequence outcome to the breakers.
func (rt *retrier) do(b *browser.Browser, key string, op func() (*browser.Page, error)) (*browser.Page, error) {
	var page *browser.Page
	err := resilience.Do(nil, rt.clock, rt.seed, key, rt.policy, rt.sleep, rt.m, func(attempt int) error {
		b.SetAttempt(attempt)
		defer b.SetAttempt(0)
		p, err := op()
		if err == nil {
			page = p
		}
		return err
	})
	rt.report(page, err)
	return page, err
}

// navigate is Browser.Navigate under policy.
func (rt *retrier) navigate(b *browser.Browser, key, rawURL, referer string) (*browser.Page, error) {
	return rt.do(b, key, func() (*browser.Page, error) { return b.Navigate(rawURL, referer) })
}

// click is Browser.Click under policy.
func (rt *retrier) click(b *browser.Browser, key string, page *browser.Page, index int) (*browser.Page, error) {
	return rt.do(b, key, func() (*browser.Page, error) { return b.Click(page, index) })
}

// report feeds one sequence outcome to the breakers: the landed host on
// success, the unreachable host on transport failure. Click-logic
// failures say nothing about a domain's health, and breaker rejections
// must not re-count the failure that opened the breaker.
func (rt *retrier) report(page *browser.Page, err error) {
	if rt.breakers == nil {
		return
	}
	if err == nil {
		if page != nil {
			rt.breakers.ReportHost(page.URL.Hostname(), nil)
		}
		return
	}
	if resilience.IsBreakerOpen(err) || !isConnectError(err) {
		return
	}
	var nav *browser.NavError
	if errors.As(err, &nav) && nav.URL != "" {
		if u, perr := url.Parse(nav.URL); perr == nil && u.Hostname() != "" {
			rt.breakers.ReportHost(u.Hostname(), err)
		}
	}
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

// walkState is the shared per-walk collector.
type walkState struct {
	mu   sync.Mutex
	walk *Walk
}

func (ws *walkState) putSeed(name string, rec *CrawlerStep) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.walk.SeedLoad[name] = rec
}

func (ws *walkState) putStep(stepIdx int, name string, rec *CrawlerStep) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for len(ws.walk.Steps) < stepIdx {
		ws.walk.Steps = append(ws.walk.Steps, &Step{
			Walk:    ws.walk.Index,
			Index:   len(ws.walk.Steps) + 1,
			Records: make(map[string]*CrawlerStep),
		})
	}
	ws.walk.Steps[stepIdx-1].Records[name] = rec
}

// degrade quarantines the walk with a reason instead of letting it
// abort silently.
func (ws *walkState) degrade(reason string) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.walk.Degraded = appendReason(ws.walk.Degraded, reason)
}

// runWalk executes one walk: three synchronized crawler goroutines, with
// Safari-1R trailing Safari-1 inside its goroutine.
func runWalk(cfg Config, ctrl *Controller, idx int, seeder string, cm *crawlMetrics, rt *retrier) *Walk {
	w := &Walk{Index: idx, Seeder: seeder, SeedLoad: make(map[string]*CrawlerStep)}
	ws := &walkState{walk: w}
	rt = rt.forWalk(idx)

	newBrowser := func(name string) *browser.Browser {
		return browser.New(browser.Config{
			Seed:      cfg.Seed,
			ProfileID: fmt.Sprintf("w%d-%s", idx, ProfileOf(name)),
			ClientID:  fmt.Sprintf("w%d-%s", idx, name),
			Machine:   cfg.Machine,
			UserAgent: uaFor(name),
			Policy:    policyFor(name),
			Network:   cfg.Network,
			Telemetry: cfg.Telemetry,
		})
	}

	var wg sync.WaitGroup
	for _, name := range ParallelCrawlers {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			// Quarantine, don't crash: a panicking crawler degrades its
			// walk; its peers drain via the controller's barrier timeout.
			defer func() {
				if p := recover(); p != nil {
					ws.degrade(fmt.Sprintf("panic in %s: %v", name, p))
				}
			}()
			r := &walkRunner{
				cfg:  cfg,
				ctrl: ctrl,
				ws:   ws,
				walk: idx,
				name: name,
				b:    newBrowser(name),
				cm:   cm,
				rt:   rt,
			}
			if name == Safari1 {
				r.trailer = &trailRunner{
					cfg:  cfg,
					ws:   ws,
					walk: idx,
					b:    newBrowser(Safari1R),
					cm:   cm,
					rt:   rt,
				}
			}
			r.run(seeder)
		}(name)
	}
	wg.Wait()
	// Apply any virtual time still owed (e.g. the last step's dwell, or
	// backoff from a crawler that exited after the final rendezvous)
	// before the walk is logged.
	rt.ledger.drain(idx)

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

// walkRunner is one parallel crawler's walk execution.
type walkRunner struct {
	cfg     Config
	ctrl    *Controller
	ws      *walkState
	walk    int
	name    string
	b       *browser.Browser
	trailer *trailRunner
	cm      *crawlMetrics
	rt      *retrier
}

// snapshot records the first-party storage of a page.
func (r *walkRunner) snapshot(b *browser.Browser, pageURL string) Snapshot {
	return takeSnapshot(b, pageURL)
}

func takeSnapshot(b *browser.Browser, pageURL string) Snapshot {
	u, err := url.Parse(pageURL)
	if err != nil {
		return Snapshot{URL: pageURL}
	}
	host := u.Hostname()
	snap := Snapshot{URL: pageURL, Local: b.Store().FirstPartyLocal(host)}
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

// run executes the walk for this crawler.
func (r *walkRunner) run(seeder string) {
	seedURL := "http://" + seeder + "/"
	page, err := r.rt.navigate(r.b, fmt.Sprintf("seed/%d/%s", r.walk, r.name), seedURL, "")
	seedRec := &CrawlerStep{
		Crawler:  r.name,
		Profile:  ProfileOf(r.name),
		StartURL: seedURL,
		Requests: r.b.Requests(),
	}
	// lastNavErr is the navigation failure that most recently left this
	// crawler without a live page; steps that start with page == nil
	// derive their failure from it (their own state, not a variable
	// captured from the seed navigation steps earlier).
	var lastNavErr error
	if err != nil {
		seedRec.Fail = "connect: " + err.Error()
		lastNavErr = err
	} else {
		seedRec.LandedURL = page.URL.String()
		seedRec.After = r.snapshot(r.b, page.URL.String())
	}
	r.ws.putSeed(r.name, seedRec)
	if r.trailer != nil {
		r.trailer.repeatSeed(seedURL)
	}

	for step := 1; step <= r.cfg.StepsPerWalk; step++ {
		sp := r.cm.tel.StartSpan("crawler", "step").
			Attr("crawler", r.name).
			Attr("walk", strconv.Itoa(r.walk)).
			Attr("step", strconv.Itoa(step))
		rec := &CrawlerStep{
			Crawler:    r.name,
			Profile:    ProfileOf(r.name),
			ClickIndex: -1,
		}
		var els []Element
		var clickables []browser.Clickable
		if page != nil {
			rec.StartURL = page.URL.String()
			rec.Before = r.snapshot(r.b, page.URL.String())
			clickables = r.b.Clickables(page)
			els = make([]Element, 0, len(clickables))
			for _, c := range clickables {
				els = append(els, elementFrom(c, r.b.CrossDomain(page, c)))
			}
		} else if lastNavErr != nil {
			rec.Fail = "connect: " + lastNavErr.Error()
		} else {
			rec.Fail = "connect: no live page"
		}

		dec, derr := r.ctrl.SubmitElements(r.walk, step, r.name, els)
		if derr != nil {
			rec.Fail = "controller: " + derr.Error()
			r.ws.putStep(step, r.name, rec)
			r.cm.finishStep(sp, rec)
			return
		}
		if !dec.Found {
			// A crawler with no page submitted an empty list, which
			// guarantees no match for everyone — so all three crawlers
			// take this branch together and nobody waits at the landing
			// rendezvous.
			if page != nil {
				rec.Fail = "no common element"
			}
			r.ws.putStep(step, r.name, rec)
			r.cm.finishStep(sp, rec)
			// Safari-1R records the trailing failure in both branches:
			// "no common element" when Safari-1 had a page, the connect
			// failure when it did not — so the repeat-crawler dataset
			// has no holes.
			if r.trailer != nil {
				if page != nil {
					r.trailer.recordFail(step, "no common element")
				} else {
					r.trailer.recordFail(step, rec.Fail)
				}
			}
			return
		}

		rec.ClickIndex = dec.Index
		if dec.Index >= 0 && dec.Index < len(els) {
			e := els[dec.Index]
			rec.Clicked = &e
		}
		r.cm.clicks.Inc()
		if rec.Clicked != nil && rec.Clicked.Kind == "iframe" {
			r.cm.iframeClicks.Inc()
		}
		r.b.ResetRequests()
		next, cerr := r.rt.click(r.b, fmt.Sprintf("click/%d/%d/%s", r.walk, step, r.name), page, dec.Index)
		fqdn := ""
		if cerr != nil {
			if isConnectError(cerr) {
				rec.Fail = "connect: " + cerr.Error()
				lastNavErr = cerr
			} else {
				rec.Fail = "click: " + cerr.Error()
			}
			var nav *browser.NavError
			if errors.As(cerr, &nav) {
				rec.NavChain = nav.Chain
			}
			rec.Requests = r.b.Requests()
		} else {
			// Dwell is deferred into the walk ledger; the landing
			// rendezvous applies it once no peer is mid-request.
			r.rt.clock.Advance(time.Duration(r.cfg.DwellSeconds) * time.Second)
			rec.NavChain = next.Chain
			rec.LandedURL = next.URL.String()
			rec.Requests = r.b.Requests()
			rec.After = r.snapshot(r.b, next.URL.String())
			fqdn = next.URL.Hostname()
		}

		land, lerr := r.ctrl.SubmitLanding(r.walk, step, r.name, fqdn)
		if fqdn != "" {
			sp.Attr("host", fqdn)
		}
		r.ws.putStep(step, r.name, rec)
		r.cm.finishStep(sp, rec)

		// Safari-1R repeats the step right after Safari-1 finishes it
		// (§3.2).
		if r.trailer != nil && rec.Clicked != nil {
			r.trailer.repeatStep(step, rec.StartURL, els, dec.Index)
		}

		if lerr != nil || cerr != nil || !land.Synchronized {
			return
		}
		page = next
	}
}

// sameURLSansQuery compares two URLs by host and path, ignoring query
// strings: the repeat crawler's landing URL legitimately differs from
// Safari-1's by its own UID values.
func sameURLSansQuery(a, b string) bool {
	ua, erra := url.Parse(a)
	ub, errb := url.Parse(b)
	if erra != nil || errb != nil {
		return a == b
	}
	return ua.Host == ub.Host && ua.Path == ub.Path
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

// trailRunner is Safari-1R: it repeats each of Safari-1's steps with the
// same user profile, providing the repeat observations that separate
// session IDs from UIDs (§3.7.1).
type trailRunner struct {
	cfg  Config
	ws   *walkState
	walk int
	b    *browser.Browser
	page *browser.Page
	cm   *crawlMetrics
	rt   *retrier
}

func (t *trailRunner) repeatSeed(seedURL string) {
	page, err := t.rt.navigate(t.b, fmt.Sprintf("seed/%d/%s", t.walk, Safari1R), seedURL, "")
	rec := &CrawlerStep{
		Crawler:  Safari1R,
		Profile:  ProfileOf(Safari1R),
		StartURL: seedURL,
		Requests: t.b.Requests(),
	}
	if err != nil {
		rec.Fail = "connect: " + err.Error()
	} else {
		rec.LandedURL = page.URL.String()
		rec.After = takeSnapshot(t.b, page.URL.String())
		t.page = page
	}
	t.ws.putSeed(Safari1R, rec)
}

func (t *trailRunner) recordFail(step int, reason string) {
	rec := &CrawlerStep{Crawler: Safari1R, Profile: ProfileOf(Safari1R), ClickIndex: -1, Fail: reason}
	if t.page != nil {
		rec.StartURL = t.page.URL.String()
	}
	t.ws.putStep(step, Safari1R, rec)
}

// repeatStep finds Safari-1's clicked element on the repeat crawler's own
// page instance and clicks it. The two element lists are aligned in
// document order with the same matching heuristics the controller uses —
// matching the single clicked element in isolation would confuse
// same-sized anchors, since heuristic 2 ignores the y-coordinate. The
// repeat crawler repeats Safari-1's step, not its own history: if it
// drifted — say its previous ad click landed on a different site — it
// first re-navigates to Safari-1's start URL (its profile storage
// persists, so the revisit observations stay valid).
func (t *trailRunner) repeatStep(step int, startURL string, s1Elements []Element, clickedIdx int) {
	rec := &CrawlerStep{Crawler: Safari1R, Profile: ProfileOf(Safari1R), ClickIndex: -1}
	if t.page == nil || (startURL != "" && !sameURLSansQuery(t.page.URL.String(), startURL)) {
		t.cm.renavigations.Inc()
		page, err := t.rt.navigate(t.b, fmt.Sprintf("renav/%d/%d/%s", t.walk, step, Safari1R), startURL, "")
		if err != nil {
			rec.Fail = "connect: " + err.Error()
			rec.StartURL = startURL
			t.ws.putStep(step, Safari1R, rec)
			t.page = nil
			return
		}
		t.page = page
	}
	rec.StartURL = t.page.URL.String()
	rec.Before = takeSnapshot(t.b, t.page.URL.String())

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
		t.ws.putStep(step, Safari1R, rec)
		t.page = nil
		return
	}
	rec.ClickIndex = match
	t.b.ResetRequests()
	next, err := t.rt.click(t.b, fmt.Sprintf("click/%d/%d/%s", t.walk, step, Safari1R), t.page, match)
	if err != nil {
		rec.Fail = "click: " + err.Error()
		rec.Requests = t.b.Requests()
		t.ws.putStep(step, Safari1R, rec)
		t.page = nil
		return
	}
	t.rt.clock.Advance(time.Duration(t.cfg.DwellSeconds) * time.Second)
	rec.NavChain = next.Chain
	rec.LandedURL = next.URL.String()
	rec.Requests = t.b.Requests()
	rec.After = takeSnapshot(t.b, next.URL.String())
	t.ws.putStep(step, Safari1R, rec)
	t.page = next
}
