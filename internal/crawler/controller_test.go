package crawler

import (
	"testing"

	"crumbcruncher/internal/dom"
)

func threeSameLists() map[string][]Element {
	els := []Element{
		{Index: 0, Kind: "a", Href: "http://same.com/p", AttrNames: []string{"href"}, CrossDomain: true},
		{Index: 1, Kind: "iframe", AttrNames: []string{"src", "width"}, Box: dom.Rect{X: 0, W: 300, H: 250}, XPath: "/iframe[1]"},
	}
	return map[string][]Element{Safari1: els, Safari2: els, Chrome3: els}
}

func TestControllerAgreesAcrossCrawlers(t *testing.T) {
	c := NewController(1, AllHeuristics, 0.6)
	decs := c.decide(0, 1, threeSameLists())
	if len(decs) != 3 {
		t.Fatalf("decisions = %d", len(decs))
	}
	kind := decs[Safari1].Kind
	for _, name := range ParallelCrawlers {
		d := decs[name]
		if !d.Found {
			t.Fatalf("%s: not found", name)
		}
		if d.Kind != kind {
			t.Fatalf("crawlers disagree on kind: %v", decs)
		}
	}
}

func TestControllerNoMatch(t *testing.T) {
	c := NewController(1, AllHeuristics, 0.6)
	lists := map[string][]Element{
		Safari1: {{Index: 0, Kind: "a", Href: "http://a.com/1", AttrNames: []string{"href"}}},
		Safari2: {{Index: 0, Kind: "a", Href: "http://b.com/2", AttrNames: []string{"href"}, Box: dom.Rect{X: 5}}},
		Chrome3: {{Index: 0, Kind: "a", Href: "http://c.com/3", AttrNames: []string{"href"}, Box: dom.Rect{X: 9}}},
	}
	decs := c.decide(0, 1, lists)
	for name, d := range decs {
		if d.Found {
			t.Fatalf("%s: expected no match", name)
		}
	}
}

func TestControllerDeterministicChoice(t *testing.T) {
	lists := threeSameLists()
	d1 := NewController(7, AllHeuristics, 0.6).decide(3, 2, lists)
	d2 := NewController(7, AllHeuristics, 0.6).decide(3, 2, lists)
	if d1[Safari1] != d2[Safari1] {
		t.Fatalf("controller choice not deterministic: %v vs %v", d1[Safari1], d2[Safari1])
	}
}

func TestControllerIframeBias(t *testing.T) {
	// With bias 1.0 the iframe must always win over the cross-domain
	// anchor.
	c := NewController(1, AllHeuristics, 1.0)
	for step := 1; step <= 5; step++ {
		decs := c.decide(10+step, step, threeSameLists())
		if decs[Safari1].Kind != "iframe" {
			t.Fatalf("step %d: bias 1.0 chose %q", step, decs[Safari1].Kind)
		}
	}
	// With bias 0 the cross-domain anchor must always win.
	c0 := NewController(1, AllHeuristics, 0)
	for step := 1; step <= 5; step++ {
		decs := c0.decide(20+step, step, threeSameLists())
		if decs[Safari1].Kind != "a" {
			t.Fatalf("step %d: bias 0 chose %q", step, decs[Safari1].Kind)
		}
	}
}

func TestLandingSync(t *testing.T) {
	if !sameLanding([]string{"shop.example.com", "shop.example.com", "shop.example.com"}) {
		t.Fatal("identical FQDNs must synchronize")
	}
}

func TestLandingDivergence(t *testing.T) {
	if sameLanding([]string{"a.com", "a.com", "b.com"}) {
		t.Fatal("different FQDNs must not synchronize")
	}
}

func TestLandingEmptyFQDNNotSynchronized(t *testing.T) {
	// Regression: a crawler whose click failed lands on an empty FQDN,
	// which must compare like any other value — treating "" as "no value
	// yet" once let the one successful crawler continue alone.
	if sameLanding([]string{"", "", "shop.com"}) {
		t.Fatal("empty FQDNs must not synchronize with a real landing")
	}
	// All-empty (every click failed) still compares equal; the walk
	// ends on the failed clicks regardless.
	if !sameLanding([]string{"", "", ""}) {
		t.Fatal("identical (even empty) FQDNs should compare equal")
	}
}
