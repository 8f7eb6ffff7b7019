package crawler

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"crumbcruncher/internal/stats"
)

// Decision is the controller's answer to an element submission: which of
// the crawler's own elements to click.
type Decision struct {
	Found bool
	Index int
	Kind  string
}

// LandingResult is the controller's answer to a landing-FQDN submission.
type LandingResult struct {
	Synchronized bool
}

// ErrBarrierTimeout is returned when the other crawlers never arrive at a
// rendezvous (a crawler died mid-step).
var ErrBarrierTimeout = errors.New("crawler: controller barrier timeout")

// Controller synchronizes the three parallel crawlers and picks the
// element to click, preferring iframes (expected to contain ads) and
// cross-domain anchors, per §3.1. The paper's controller is a local
// HTTP server; here the crawlers call it in-process, which keeps the
// same submit-and-rendezvous protocol without a socket.
type Controller struct {
	split      *stats.Splitter
	heOn       Heuristics
	iframeBias float64
	timeout    time.Duration

	mu       sync.Mutex
	barriers map[string]*barrier

	// afterBarrier, when set, is invoked by the completing arrival of
	// every rendezvous — while the other crawlers of the walk are still
	// blocked in their Submit calls — giving the crawl a point where it
	// can advance the virtual clock with no crawler concurrently
	// stamping requests (see clockLedger).
	afterBarrier func(walk int)
}

// NewController returns a controller. iframeBias is the probability of
// choosing a matched iframe when cross-domain anchors are also available.
func NewController(seed int64, heur Heuristics, iframeBias float64) *Controller {
	return &Controller{
		split:      stats.NewSplitter(stats.DeriveSeed(seed, "controller")),
		heOn:       heur,
		iframeBias: iframeBias,
		timeout:    30 * time.Second,
		barriers:   make(map[string]*barrier),
	}
}

type barrier struct {
	need   int
	subs   map[string]interface{}
	done   chan struct{}
	result interface{}
}

// rendezvous registers a submission under key and blocks until need
// submissions arrived; the last arrival runs compute over all submissions
// exactly once.
func (c *Controller) rendezvous(key, crawler string, sub interface{}, need int,
	compute func(map[string]interface{}) interface{}) (interface{}, error) {

	c.mu.Lock()
	b, ok := c.barriers[key]
	if !ok {
		b = &barrier{need: need, subs: make(map[string]interface{}), done: make(chan struct{})}
		c.barriers[key] = b
	}
	b.subs[crawler] = sub
	last := len(b.subs) == b.need
	if last {
		b.result = compute(b.subs)
		close(b.done)
		delete(c.barriers, key)
	}
	c.mu.Unlock()
	if last {
		return b.result, nil
	}

	// The guard timer is stopped as soon as the barrier resolves, so a
	// long crawl does not pile up one pending timer per arrival.
	guard := time.NewTimer(c.timeout) //crumb:allow wallclock real deadlock guard; never fires on the success path
	defer guard.Stop()
	select {
	case <-b.done:
		return b.result, nil
	case <-guard.C:
		return nil, ErrBarrierTimeout
	}
}

// SubmitElements submits a crawler's candidate elements for a step and
// blocks until all three parallel crawlers have submitted; it returns
// the crawler's own index of the element to click.
func (c *Controller) SubmitElements(walk, step int, crawler string, elements []Element) (Decision, error) {
	key := fmt.Sprintf("el/%d/%d", walk, step)
	res, err := c.rendezvous(key, crawler, elements, len(ParallelCrawlers),
		func(subs map[string]interface{}) interface{} {
			lists := make(map[string][]Element, len(subs))
			for name, v := range subs {
				lists[name] = v.([]Element)
			}
			res := c.decide(walk, step, lists)
			if c.afterBarrier != nil {
				c.afterBarrier(walk)
			}
			return res
		})
	if err != nil {
		return Decision{}, err
	}
	decisions := res.(map[string]Decision)
	return decisions[crawler], nil
}

// decide matches the three element lists and picks the click target. The
// choice is seeded per (walk, step), so it does not depend on goroutine
// arrival order.
func (c *Controller) decide(walk, step int, lists map[string][]Element) map[string]Decision {
	matches := MatchElements(lists, c.heOn)
	out := make(map[string]Decision, len(ParallelCrawlers))
	if len(matches) == 0 {
		for _, name := range ParallelCrawlers {
			out[name] = Decision{Found: false, Index: -1}
		}
		return out
	}
	var iframes, crossAnchors []MatchTriple
	for _, m := range matches {
		switch {
		case m.Kind == "iframe":
			iframes = append(iframes, m)
		case m.CrossDomain:
			crossAnchors = append(crossAnchors, m)
		}
	}
	rng := stats.AcquireRNG(c.split.Seed(fmt.Sprintf("pick/%d/%d", walk, step)))
	defer rng.Release()
	var chosen MatchTriple
	switch {
	case len(iframes) > 0 && (len(crossAnchors) == 0 || rng.Bool(c.iframeBias)):
		chosen = iframes[rng.Intn(len(iframes))]
	case len(crossAnchors) > 0:
		chosen = crossAnchors[rng.Intn(len(crossAnchors))]
	default:
		chosen = matches[rng.Intn(len(matches))]
	}
	for _, name := range ParallelCrawlers {
		out[name] = Decision{Found: true, Index: chosen.Indices[name], Kind: chosen.Kind}
	}
	return out
}

// SubmitLanding submits a crawler's landing FQDN for a step and blocks
// until all three parallel crawlers have submitted: all three must agree
// for the walk to continue (§3.3).
func (c *Controller) SubmitLanding(walk, step int, crawler, fqdn string) (LandingResult, error) {
	key := fmt.Sprintf("land/%d/%d", walk, step)
	res, err := c.rendezvous(key, crawler, fqdn, len(ParallelCrawlers),
		func(subs map[string]interface{}) interface{} {
			// An empty FQDN marks a failed click; it must compare like
			// any other value (a "" sentinel here once let one crawler
			// sail past two crashed peers and deadlock the next step's
			// rendezvous).
			first, started, same := "", false, true
			for _, v := range subs {
				f := v.(string)
				if !started {
					first, started = f, true
					continue
				}
				if f != first {
					same = false
				}
			}
			if c.afterBarrier != nil {
				c.afterBarrier(walk)
			}
			return LandingResult{Synchronized: same}
		})
	if err != nil {
		return LandingResult{}, err
	}
	return res.(LandingResult), nil
}
