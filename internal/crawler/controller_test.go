package crawler

import (
	"errors"
	"sync"
	"testing"
	"time"

	"crumbcruncher/internal/dom"
)

// submitAll drives three crawlers through one element rendezvous.
func submitAll(t *testing.T, c *Controller, walk, step int, lists map[string][]Element) map[string]Decision {
	t.Helper()
	var mu sync.Mutex
	out := make(map[string]Decision)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for _, name := range ParallelCrawlers {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			d, err := c.SubmitElements(walk, step, name, lists[name])
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			out[name] = d
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return out
}

func threeSameLists() map[string][]Element {
	els := []Element{
		{Index: 0, Kind: "a", Href: "http://same.com/p", AttrNames: []string{"href"}, CrossDomain: true},
		{Index: 1, Kind: "iframe", AttrNames: []string{"src", "width"}, Box: dom.Rect{X: 0, W: 300, H: 250}, XPath: "/iframe[1]"},
	}
	return map[string][]Element{Safari1: els, Safari2: els, Chrome3: els}
}

func TestControllerAgreesAcrossCrawlers(t *testing.T) {
	c := NewController(1, AllHeuristics, 0.6)
	decs := submitAll(t, c, 0, 1, threeSameLists())
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
	decs := submitAll(t, c, 0, 1, lists)
	for name, d := range decs {
		if d.Found {
			t.Fatalf("%s: expected no match", name)
		}
	}
}

func TestControllerDeterministicChoice(t *testing.T) {
	lists := threeSameLists()
	d1 := submitAll(t, NewController(7, AllHeuristics, 0.6), 3, 2, lists)
	d2 := submitAll(t, NewController(7, AllHeuristics, 0.6), 3, 2, lists)
	if d1[Safari1] != d2[Safari1] {
		t.Fatalf("controller choice not deterministic: %v vs %v", d1[Safari1], d2[Safari1])
	}
}

func TestControllerIframeBias(t *testing.T) {
	// With bias 1.0 the iframe must always win over the cross-domain
	// anchor.
	c := NewController(1, AllHeuristics, 1.0)
	for step := 1; step <= 5; step++ {
		decs := submitAll(t, c, 10+step, step, threeSameLists())
		if decs[Safari1].Kind != "iframe" {
			t.Fatalf("step %d: bias 1.0 chose %q", step, decs[Safari1].Kind)
		}
	}
	// With bias 0 the cross-domain anchor must always win.
	c0 := NewController(1, AllHeuristics, 0)
	for step := 1; step <= 5; step++ {
		decs := submitAll(t, c0, 20+step, step, threeSameLists())
		if decs[Safari1].Kind != "a" {
			t.Fatalf("step %d: bias 0 chose %q", step, decs[Safari1].Kind)
		}
	}
}

func TestLandingSync(t *testing.T) {
	c := NewController(1, AllHeuristics, 0.6)
	var wg sync.WaitGroup
	results := make(chan LandingResult, 3)
	for _, name := range ParallelCrawlers {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			res, err := c.SubmitLanding(0, 1, name, "shop.example.com")
			if err != nil {
				t.Error(err)
				return
			}
			results <- res
		}(name)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if !r.Synchronized {
			t.Fatal("identical FQDNs must synchronize")
		}
	}
}

func TestLandingDivergence(t *testing.T) {
	c := NewController(1, AllHeuristics, 0.6)
	fqdns := map[string]string{Safari1: "a.com", Safari2: "a.com", Chrome3: "b.com"}
	var wg sync.WaitGroup
	results := make(chan LandingResult, 3)
	for _, name := range ParallelCrawlers {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			res, err := c.SubmitLanding(0, 2, name, fqdns[name])
			if err != nil {
				t.Error(err)
				return
			}
			results <- res
		}(name)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.Synchronized {
			t.Fatal("different FQDNs must not synchronize")
		}
	}
}

func TestLandingEmptyFQDNNotSynchronized(t *testing.T) {
	// Regression: a crawler whose click failed submits an empty FQDN.
	// The rendezvous must not treat "" as "no value yet" — doing so once
	// let the one successful crawler continue alone and deadlock the
	// next step's barrier for 30 seconds.
	c := NewController(1, AllHeuristics, 0.6)
	fqdns := map[string]string{Safari1: "", Safari2: "", Chrome3: "shop.com"}
	var wg sync.WaitGroup
	results := make(chan LandingResult, 3)
	for _, name := range ParallelCrawlers {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			res, err := c.SubmitLanding(7, 1, name, fqdns[name])
			if err != nil {
				t.Error(err)
				return
			}
			results <- res
		}(name)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.Synchronized {
			t.Fatal("empty FQDNs must not synchronize with a real landing")
		}
	}
	// All-empty (every click failed) still counts as "synchronized" —
	// every crawler exits via its own click error regardless.
	results2 := make(chan LandingResult, 3)
	for _, name := range ParallelCrawlers {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			res, _ := c.SubmitLanding(7, 2, name, "")
			results2 <- res
		}(name)
	}
	wg.Wait()
	close(results2)
	for r := range results2 {
		if !r.Synchronized {
			t.Fatal("identical (even empty) FQDNs should compare equal")
		}
	}
}

// TestBarrierTimeout: when a crawler never arrives, its peers give up
// after the controller's timeout instead of blocking forever.
func TestBarrierTimeout(t *testing.T) {
	c := NewController(1, AllHeuristics, 0.6)
	c.timeout = 50 * time.Millisecond
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, name := range ParallelCrawlers[:2] {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			_, err := c.SubmitLanding(0, 0, name, "a.example")
			errs <- err
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrBarrierTimeout) {
			t.Fatalf("SubmitLanding with a missing peer: err = %v, want ErrBarrierTimeout", err)
		}
	}
}
