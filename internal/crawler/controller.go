package crawler

import (
	"fmt"

	"crumbcruncher/internal/stats"
)

// Decision is the controller's choice for one crawler: which of the
// crawler's own elements to click.
type Decision struct {
	Found bool
	Index int
	Kind  string
}

// Controller picks the element the three parallel crawlers click,
// preferring iframes (expected to contain ads) and cross-domain anchors,
// per §3.1. The paper's controller is a local HTTP server the crawlers
// submit to; here a walk drives its crawlers in lockstep and consults
// the controller in-process between the element and click phases.
type Controller struct {
	split      *stats.Splitter
	heOn       Heuristics
	iframeBias float64
}

// NewController returns a controller. iframeBias is the probability of
// choosing a matched iframe when cross-domain anchors are also available.
func NewController(seed int64, heur Heuristics, iframeBias float64) *Controller {
	return &Controller{
		split:      stats.NewSplitter(stats.DeriveSeed(seed, "controller")),
		heOn:       heur,
		iframeBias: iframeBias,
	}
}

// decide matches the three element lists and picks the click target,
// giving each crawler its own index of it. The choice is seeded per
// (walk, step).
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

// sameLanding reports whether every crawler landed on the same FQDN:
// all three must agree for the walk to continue (§3.3). An empty FQDN
// marks a failed click; it compares like any other value.
func sameLanding(fqdns []string) bool {
	for _, f := range fqdns {
		if f != fqdns[0] {
			return false
		}
	}
	return true
}
