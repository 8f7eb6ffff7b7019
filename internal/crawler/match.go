package crawler

import (
	"net/url"
	"strings"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/dom"
)

// Element is the wire form of a clickable element: the identification
// signals each crawler sends the central controller (§3.3 — "properties,
// location, bounding boxes, and x-paths").
type Element struct {
	Index       int      `json:"index"`
	Kind        string   `json:"kind"` // "a" or "iframe"
	Href        string   `json:"href,omitempty"`
	AttrNames   []string `json:"attr_names,omitempty"`
	Box         dom.Rect `json:"box"`
	XPath       string   `json:"xpath"`
	CrossDomain bool     `json:"cross_domain"`

	// hrefKey is hrefSansQuery(Href) as the browser derived it while
	// enumerating the page; empty when unknown (elements decoded from a
	// store or built by hand), and never stored.
	hrefKey string
}

// elementFrom converts a browser clickable.
func elementFrom(c browser.Clickable, crossDomain bool) Element {
	return Element{
		Index:       c.Index,
		Kind:        c.Kind,
		Href:        c.Href,
		AttrNames:   c.AttrNames,
		Box:         c.Box,
		XPath:       c.XPath,
		CrossDomain: crossDomain,
		hrefKey:     c.HrefKey,
	}
}

// recorded returns a copy of e for a step record, with its Href and
// AttrNames copied out of the page body they are substrings of: a record
// outlives its page, and one substring would keep the whole body alive.
// Kind is a constant and XPath a string of its own already.
func recorded(e Element) *Element {
	e.Href = strings.Clone(e.Href)
	if len(e.AttrNames) > 0 {
		names := make([]string, len(e.AttrNames))
		for i, n := range e.AttrNames {
			names[i] = strings.Clone(n)
		}
		e.AttrNames = names
	}
	return &e
}

// hrefSansQuery strips the query string and fragment from an href: the
// comparison form of matching heuristic 1, which must ignore query
// parameters precisely because decorated UIDs differ across crawlers.
func hrefSansQuery(href string) string {
	if href == "" {
		return ""
	}
	if u, err := url.Parse(href); err == nil {
		u.RawQuery = ""
		u.Fragment = ""
		return u.String()
	}
	if i := strings.IndexAny(href, "?#"); i >= 0 {
		return href[:i]
	}
	return href
}

// attrNamesEqual compares attribute-name lists in document order.
func attrNamesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameElement applies the paper's three heuristics to decide whether two
// elements on two instances of a page are "the same":
//
//  1. Both anchors with equal hrefs, query parameters excluded.
//  2. Equal HTML attribute names and similar bounding boxes — the
//     y-coordinate may differ, allowing for content above that rendered
//     at a different height.
//  3. Equal HTML attribute names and equal x-paths.
//
// Degenerate signals never match: heuristic 2 requires a laid-out
// (non-zero) box and heuristic 3 a non-empty x-path.
func SameElement(a, b Element) bool { return sameElementWith(a, b, AllHeuristics) }

// Heuristics can be selectively disabled for the ablation benchmarks.
type Heuristics struct {
	Href  bool
	Box   bool
	XPath bool
}

// AllHeuristics enables all three.
var AllHeuristics = Heuristics{Href: true, Box: true, XPath: true}

// sameElementWith is SameElement under a heuristic mask.
func sameElementWith(a, b Element, h Heuristics) bool {
	return sameKeyed(a, b, hrefSansQuery(a.Href), hrefSansQuery(b.Href), h)
}

// sameKeyed is sameElementWith given both elements' heuristic-1 keys
// (hrefSansQuery of their hrefs), so list matching parses each href
// once rather than once per comparison.
func sameKeyed(a, b Element, ka, kb string, h Heuristics) bool {
	if a.Kind != b.Kind {
		return false
	}
	if h.Href && a.Kind == "a" && a.Href != "" && b.Href != "" && ka == kb {
		return true
	}
	if h.Box && attrNamesEqual(a.AttrNames, b.AttrNames) &&
		a.Box.W > 0 && a.Box.H > 0 &&
		a.Box.X == b.Box.X && a.Box.W == b.Box.W && a.Box.H == b.Box.H {
		return true
	}
	if h.XPath && attrNamesEqual(a.AttrNames, b.AttrNames) &&
		a.XPath != "" && a.XPath == b.XPath {
		return true
	}
	return false
}

// hrefKeys returns each element's heuristic-1 key: the one the browser
// derived, or hrefSansQuery of its href when it has none.
func hrefKeys(list []Element) []string {
	keys := make([]string, len(list))
	for i, e := range list {
		if keys[i] = e.hrefKey; keys[i] == "" {
			keys[i] = hrefSansQuery(e.Href)
		}
	}
	return keys
}

// MatchTriple is one element present on all three synchronized crawlers,
// identified by its index in each crawler's list.
type MatchTriple struct {
	Indices map[string]int // crawler name → index
	Kind    string
	// CrossDomain is taken from the first crawler's instance.
	CrossDomain bool
}

// MatchElements finds the elements common to all three lists under the
// given heuristics, greedily in the first list's document order; each
// element in lists 2 and 3 matches at most once.
func MatchElements(lists map[string][]Element, h Heuristics) []MatchTriple {
	l1, l2, l3 := lists[Safari1], lists[Safari2], lists[Chrome3]
	k1, k2, k3 := hrefKeys(l1), hrefKeys(l2), hrefKeys(l3)
	used2 := make([]bool, len(l2))
	used3 := make([]bool, len(l3))
	var out []MatchTriple
	for i, e1 := range l1 {
		i2 := findMatch(e1, k1[i], l2, k2, used2, h)
		if i2 < 0 {
			continue
		}
		i3 := findMatch(e1, k1[i], l3, k3, used3, h)
		if i3 < 0 {
			continue
		}
		used2[i2] = true
		used3[i3] = true
		out = append(out, MatchTriple{
			Indices: map[string]int{
				Safari1: e1.Index,
				Safari2: l2[i2].Index,
				Chrome3: l3[i3].Index,
			},
			Kind:        e1.Kind,
			CrossDomain: e1.CrossDomain,
		})
	}
	return out
}

// MatchPair aligns two element lists greedily in a's document order and
// returns, for each element of a, the index of its match in b (-1 when
// none). Aligning whole lists rather than searching for one element is
// essential: heuristic 2 ignores the y-coordinate, so two same-width
// anchors at the same x are indistinguishable in isolation — document
// order is what disambiguates them.
func MatchPair(a, b []Element, h Heuristics) []int {
	ka, kb := hrefKeys(a), hrefKeys(b)
	used := make([]bool, len(b))
	out := make([]int, len(a))
	for i, e := range a {
		out[i] = findMatch(e, ka[i], b, kb, used, h)
		if out[i] >= 0 {
			used[out[i]] = true
		}
	}
	return out
}

// findMatch returns the index of the first unused element of list that
// matches e, whose key is key; keys are list's own.
func findMatch(e Element, key string, list []Element, keys []string, used []bool, h Heuristics) int {
	for i, cand := range list {
		if !used[i] && sameKeyed(e, cand, key, keys[i], h) {
			return i
		}
	}
	return -1
}
