package crawler

import (
	"context"
	"net/url"
	"testing"

	"crumbcruncher/internal/web"
)

// smallCrawl runs a small world crawl once per test binary.
func smallCrawl(t *testing.T) (*web.World, *Dataset) {
	t.Helper()
	cfg := web.SmallConfig()
	w := web.BuildWorld(cfg)
	ds, err := CrawlContext(context.Background(), Config{
		Seed:    cfg.Seed,
		Network: w.Network(),
		Seeders: w.Seeders(),
		Walks:   12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, ds
}

func TestCrawlProducesData(t *testing.T) {
	_, ds := smallCrawl(t)
	if len(ds.Walks) != 12 {
		t.Fatalf("walks = %d", len(ds.Walks))
	}
	steps := ds.StepCount()
	if steps == 0 {
		t.Fatal("no steps recorded")
	}
	okSteps := ds.OutcomeCounts()[OutcomeOK]
	if okSteps == 0 {
		t.Fatal("no successful steps — world or crawler broken")
	}
}

func TestCrawlAllFourCrawlersRecorded(t *testing.T) {
	_, ds := smallCrawl(t)
	for _, w := range ds.Walks {
		for _, s := range w.Steps {
			if s.Outcome != OutcomeOK {
				continue
			}
			for _, name := range ParallelCrawlers {
				if s.Records[name] == nil {
					t.Fatalf("walk %d step %d missing %s", w.Index, s.Index, name)
				}
			}
			// Safari-1R repeats successful steps (it may individually
			// fail, but a record must exist).
			if s.Records[Safari1R] == nil {
				t.Fatalf("walk %d step %d missing Safari-1R", w.Index, s.Index)
			}
		}
	}
}

func TestCrawlOKStepsSynchronized(t *testing.T) {
	_, ds := smallCrawl(t)
	for _, s := range allSteps(ds) {
		if s.Outcome != OutcomeOK {
			continue
		}
		host := ""
		for _, name := range ParallelCrawlers {
			rec := s.Records[name]
			if rec.LandedURL == "" {
				t.Fatalf("ok step without landing for %s", name)
			}
			u, err := url.Parse(rec.LandedURL)
			if err != nil {
				t.Fatal(err)
			}
			if host == "" {
				host = u.Hostname()
			} else if host != u.Hostname() {
				t.Fatalf("ok step landed on %s and %s", host, u.Hostname())
			}
		}
	}
}

func TestCrawlRecordsNavigationChains(t *testing.T) {
	_, ds := smallCrawl(t)
	foundChain := false
	for _, s := range allSteps(ds) {
		rec := s.Records[Safari1]
		if rec == nil {
			continue
		}
		if len(rec.NavChain) > 1 {
			foundChain = true
			// Every hop before the last must be a redirect.
			for _, hop := range rec.NavChain[:len(rec.NavChain)-1] {
				if hop.Status < 300 || hop.Status >= 400 {
					t.Fatalf("mid-chain hop not a redirect: %+v", hop)
				}
			}
		}
	}
	if !foundChain {
		t.Fatal("no multi-hop navigation observed — redirect chains broken")
	}
}

func TestCrawlProfilesCorrect(t *testing.T) {
	_, ds := smallCrawl(t)
	for _, s := range allSteps(ds) {
		if r1, r1r := s.Records[Safari1], s.Records[Safari1R]; r1 != nil && r1r != nil {
			if r1.Profile != r1r.Profile {
				t.Fatal("Safari-1 and Safari-1R must share a profile")
			}
		}
		if r1, r2 := s.Records[Safari1], s.Records[Safari2]; r1 != nil && r2 != nil {
			if r1.Profile == r2.Profile {
				t.Fatal("Safari-1 and Safari-2 must have different profiles")
			}
		}
	}
}

func TestCrawlDeterministic(t *testing.T) {
	cfg := web.SmallConfig()
	run := func() []StepOutcome {
		w := web.BuildWorld(cfg)
		ds, err := CrawlContext(context.Background(), Config{
			Seed:    cfg.Seed,
			Network: w.Network(),
			Seeders: w.Seeders(),
			Walks:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []StepOutcome
		for _, walk := range ds.Walks {
			for _, s := range walk.Steps {
				out = append(out, s.Outcome)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("step counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestCrawlParallelWalksMatchSequential(t *testing.T) {
	cfg := web.SmallConfig()
	run := func(parallelism int) map[StepOutcome]int {
		w := web.BuildWorld(cfg)
		ds, err := CrawlContext(context.Background(), Config{
			Seed:        cfg.Seed,
			Network:     w.Network(),
			Seeders:     w.Seeders(),
			Walks:       8,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds.OutcomeCounts()
	}
	seq, par := run(1), run(4)
	for k, v := range seq {
		if par[k] != v {
			t.Fatalf("outcome %s differs: seq=%d par=%d", k, v, par[k])
		}
	}
}

func TestCrawlConnectFailures(t *testing.T) {
	cfg := web.SmallConfig()
	cfg.ConnectFailRate = 0.5
	w := web.BuildWorld(cfg)
	ds, err := CrawlContext(context.Background(), Config{
		Seed:    cfg.Seed,
		Network: w.Network(),
		Seeders: w.Seeders(),
		Walks:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.OutcomeCounts()[OutcomeConnectError] == 0 {
		t.Fatal("expected connect errors at 50% fault rate")
	}
}

func TestCrawlSmugglingObservable(t *testing.T) {
	w, ds := smallCrawl(t)
	// At least one recorded navigation URL must carry a ground-truth UID
	// parameter: the raw material of the whole study.
	found := false
	for _, s := range allSteps(ds) {
		for _, rec := range s.Records {
			for _, hop := range rec.NavChain {
				u, err := url.Parse(hop.URL)
				if err != nil {
					continue
				}
				for name := range u.Query() {
					if w.Truth().IsUIDParam(name) {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no UID parameter observed in any navigation — smuggling pipeline has nothing to find")
	}
}

func TestCrawlStorageSnapshots(t *testing.T) {
	_, ds := smallCrawl(t)
	cookies := 0
	for _, s := range allSteps(ds) {
		for _, rec := range s.Records {
			cookies += len(rec.After.Cookies)
		}
	}
	if cookies == 0 {
		t.Fatal("no cookies recorded in any snapshot")
	}
}

func TestDatasetHelpers(t *testing.T) {
	_, ds := smallCrawl(t)
	if got := len(allSteps(ds)); got != ds.StepCount() {
		t.Fatalf("Steps()=%d StepCount()=%d", got, ds.StepCount())
	}
	total := 0
	for _, n := range ds.OutcomeCounts() {
		total += n
	}
	if total != ds.StepCount() {
		t.Fatalf("outcome total %d != steps %d", total, ds.StepCount())
	}
}

func TestSequentialCrawl(t *testing.T) {
	cfg := web.SmallConfig()
	cfg.ConnectFailRate = 0
	w := web.BuildWorld(cfg)
	ds, err := SequentialCrawl(Config{
		Seed:    cfg.Seed,
		Network: w.Network(),
		Seeders: w.Seeders(),
		Walks:   10,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Crawlers) != 3 || ds.Crawlers[0] != "Seq-1" {
		t.Fatalf("crawlers = %v", ds.Crawlers)
	}
	if ds.StepCount() == 0 {
		t.Fatal("no steps")
	}
	// Users have distinct profiles per walk.
	for _, walk := range ds.Walks {
		for _, s := range walk.Steps {
			profiles := map[string]bool{}
			for _, rec := range s.Records {
				profiles[rec.Profile] = true
			}
			if len(s.Records) > 1 && len(profiles) != len(s.Records) {
				t.Fatalf("sequential users share a profile: %v", profiles)
			}
		}
	}
	// Divergence: at some step, users should be on different URLs
	// (dynamic content, no synchronization).
	diverged := false
	for _, walk := range ds.Walks {
		for _, s := range walk.Steps {
			urls := map[string]bool{}
			for _, rec := range s.Records {
				if rec.StartURL != "" {
					urls[rec.StartURL] = true
				}
			}
			if len(urls) > 1 {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Log("sequential users never diverged (possible at tiny scale)")
	}
}

func TestWalksSpreadAcrossMachines(t *testing.T) {
	cfg := web.SmallConfig()
	cfg.ConnectFailRate = 0
	w := web.BuildWorld(cfg)
	ds, err := CrawlContext(context.Background(), Config{
		Seed:         cfg.Seed,
		Network:      w.Network(),
		Seeders:      w.Seeders(),
		Walks:        6,
		StepsPerWalk: 1,
		Machines:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Machines only influence fingerprint derivation, which is not
	// recorded directly — but the crawl must succeed and stay
	// deterministic.
	if len(ds.Walks) != 6 {
		t.Fatalf("walks = %d", len(ds.Walks))
	}
}

func TestConfigIframeBiasDefaults(t *testing.T) {
	// Zero value takes the default bias.
	if got := (Config{}).withDefaults().IframeBias; got != 0.3 {
		t.Fatalf("default IframeBias = %v, want 0.3", got)
	}
	// An explicit bias survives.
	if got := (Config{IframeBias: 0.7}).withDefaults().IframeBias; got != 0.7 {
		t.Fatalf("explicit IframeBias = %v, want 0.7", got)
	}
	// NoIframes expresses a true zero, which IframeBias == 0 cannot
	// (regression: it used to be silently rewritten to 0.3).
	if got := (Config{NoIframes: true}).withDefaults().IframeBias; got != 0 {
		t.Fatalf("NoIframes IframeBias = %v, want 0", got)
	}
	// NoIframes overrides a contradictory explicit bias too.
	if got := (Config{NoIframes: true, IframeBias: 0.9}).withDefaults().IframeBias; got != 0 {
		t.Fatalf("NoIframes with explicit bias = %v, want 0", got)
	}
}

func TestCrawlNoIframesReducesIframeClicks(t *testing.T) {
	// IframeBias is the probability of preferring an iframe when
	// cross-domain anchors are also available, so a zero bias still
	// clicks iframes when they are the only choice — but must click
	// strictly fewer than the 0.3 default over enough walks.
	iframeClicks := func(seed int64, noIframes bool) int {
		cfg := web.SmallConfig()
		cfg.Seed = seed
		cfg.ConnectFailRate = 0
		w := web.BuildWorld(cfg)
		ds, err := CrawlContext(context.Background(), Config{
			Seed:      cfg.Seed,
			Network:   w.Network(),
			Seeders:   w.Seeders(),
			Walks:     40,
			NoIframes: noIframes,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, walk := range ds.Walks {
			for _, s := range walk.Steps {
				if rec := s.Records[Safari1]; rec != nil && rec.Clicked != nil && rec.Clicked.Kind == "iframe" {
					n++
				}
			}
		}
		return n
	}
	// The crawl is deterministic per seed, so this comparison is stable;
	// summing over seeds averages out trajectory divergence.
	withBias, without := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		withBias += iframeClicks(seed, false)
		without += iframeClicks(seed, true)
	}
	if without >= withBias {
		t.Fatalf("iframe clicks: NoIframes=%d, default bias=%d — zero preference had no effect", without, withBias)
	}
}

func TestPutStepOutOfOrderInsertion(t *testing.T) {
	// putStep must be able to materialise a later step before earlier
	// ones have records — and keep indices consistent when the
	// stragglers arrive.
	w := &Walk{Index: 7}
	putStep(w, 3, Safari1, &CrawlerStep{Crawler: Safari1, StartURL: "http://a.com/3"})
	putStep(w, 1, Chrome3, &CrawlerStep{Crawler: Chrome3, StartURL: "http://a.com/1"})
	putStep(w, 2, Safari2, &CrawlerStep{Crawler: Safari2, StartURL: "http://a.com/2"})
	putStep(w, 1, Safari1, &CrawlerStep{Crawler: Safari1, StartURL: "http://a.com/1"})

	if len(w.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(w.Steps))
	}
	for i, s := range w.Steps {
		if s.Index != i+1 {
			t.Fatalf("step %d has Index %d", i, s.Index)
		}
		if s.Walk != 7 {
			t.Fatalf("step %d has Walk %d, want 7", i, s.Walk)
		}
		if s.Records == nil {
			t.Fatalf("step %d has nil Records", i)
		}
	}
	if rec := w.Steps[2].Records[Safari1]; rec == nil || rec.StartURL != "http://a.com/3" {
		t.Fatalf("step 3 record misplaced: %+v", rec)
	}
	if rec := w.Steps[0].Records[Chrome3]; rec == nil || rec.StartURL != "http://a.com/1" {
		t.Fatalf("step 1 Chrome-3 record misplaced: %+v", rec)
	}
	if rec := w.Steps[0].Records[Safari1]; rec == nil || rec.StartURL != "http://a.com/1" {
		t.Fatalf("step 1 Safari-1 straggler misplaced: %+v", rec)
	}
	if rec := w.Steps[1].Records[Safari2]; rec == nil || rec.StartURL != "http://a.com/2" {
		t.Fatalf("step 2 record misplaced: %+v", rec)
	}
}

// allSteps returns all steps across all walks in order.
func allSteps(d *Dataset) []*Step {
	var out []*Step
	for _, w := range d.Walks {
		out = append(out, w.Steps...)
	}
	return out
}
