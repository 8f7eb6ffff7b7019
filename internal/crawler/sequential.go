package crawler

import (
	"errors"
	"fmt"
	"time"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/storage"
)

// SequentialCrawl implements the prior-work crawling strategy the paper
// contrasts with its synchronized design (§8.1): users are simulated one
// after another by a single crawler running the same deterministic
// "script" over the same seeds, with no central controller. Because
// nothing synchronizes the users, they drift apart on dynamic content,
// and nothing guarantees a website is visited by more than one user — the
// disadvantage the paper calls out, measured by
// uid.SequentialIdentify and BenchmarkAblationSequentialBaseline.
//
// Users are named Seq-1..Seq-n; their records share the Walk/Step
// structure so the rest of the tooling applies.
func SequentialCrawl(cfg Config, users int) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Network == nil {
		return nil, errors.New("crawler: Config.Network is required")
	}
	if len(cfg.Seeders) == 0 {
		return nil, errors.New("crawler: Config.Seeders is empty")
	}
	if users < 1 {
		users = 2
	}

	names := make([]string, users)
	for u := range names {
		names[u] = fmt.Sprintf("Seq-%d", u+1)
	}
	ds := &Dataset{Seed: cfg.Seed, Crawlers: names}
	for i := 0; i < cfg.Walks; i++ {
		ds.Walks = append(ds.Walks, &Walk{
			Index:    i,
			Seeder:   cfg.Seeders[i%len(cfg.Seeders)],
			SeedLoad: map[string]*CrawlerStep{},
		})
	}

	split := stats.NewSplitter(stats.DeriveSeed(cfg.Seed, "sequential"))
	for u, name := range names {
		for i, w := range ds.Walks {
			runSequentialWalk(cfg, split, w, name, fmt.Sprintf("w%d-squser%d", i, u+1))
		}
	}
	// Outcomes are not meaningful without synchronization; mark every
	// step OK so generic accounting functions don't misread them.
	for _, w := range ds.Walks {
		for _, s := range w.Steps {
			s.Outcome = OutcomeOK
		}
	}
	return ds, nil
}

// runSequentialWalk walks one user through one walk. The element choice
// repeats the controller's preference order but over the user's own page
// only — the same script every user runs, which still diverges wherever
// content is dynamic.
func runSequentialWalk(cfg Config, split *stats.Splitter, w *Walk, name, profile string) {
	clock := netsim.NewVirtualClock()
	b := browser.New(browser.Config{
		Seed:      cfg.Seed,
		ProfileID: profile,
		ClientID:  fmt.Sprintf("%s-%s", name, profile),
		Machine:   cfg.Machine,
		UserAgent: browser.DefaultSafariUA,
		Policy:    policyFor(Safari1),
		Network:   cfg.Network,
		Clock:     clock,
	})
	var cookies []storage.Cookie // every snapshot's cookie list
	seedURL := "http://" + w.Seeder + "/"
	page, err := b.Navigate(seedURL, "")
	rec := &CrawlerStep{Crawler: name, Profile: profile, StartURL: seedURL, Requests: b.Requests()}
	if err != nil {
		rec.Fail = "connect: " + err.Error()
		w.SeedLoad[name] = rec
		return
	}
	rec.LandedURL = page.URLString()
	rec.After = takeSnapshot(b, page, &cookies)
	w.SeedLoad[name] = rec
	// The live page is released when the next replaces it, and the last
	// one when the walk ends; records keep only strings of it.
	defer func() { page.Release() }()

	for step := 1; step <= cfg.StepsPerWalk; step++ {
		srec := &CrawlerStep{Crawler: name, Profile: profile, StartURL: page.URLString(), ClickIndex: -1}
		srec.Before = takeSnapshot(b, page, &cookies)
		idx := pickSequential(cfg, split, w.Index, step, b, page)
		if idx < 0 {
			srec.Fail = "no clickable element"
			putStep(w, step, name, srec)
			return
		}
		srec.ClickIndex = idx
		b.ResetRequests()
		next, cerr := b.Click(page, idx)
		if cerr != nil {
			srec.Fail = "click: " + cerr.Error()
			srec.Requests = b.Requests()
			putStep(w, step, name, srec)
			return
		}
		clock.Advance(time.Duration(cfg.DwellSeconds) * time.Second)
		srec.NavChain = next.Chain
		srec.LandedURL = next.URLString()
		srec.Requests = b.Requests()
		srec.After = takeSnapshot(b, next, &cookies)
		putStep(w, step, name, srec)
		page.Release()
		page = next
	}
}

// pickSequential chooses an element with the controller's preference
// order, seeded identically for every user — the "same script" — yet
// operating on each user's own (possibly different) page.
func pickSequential(cfg Config, split *stats.Splitter, walk, step int, b *browser.Browser, page *browser.Page) int {
	cs := b.Clickables(page)
	if len(cs) == 0 {
		return -1
	}
	var iframes, cross, all []int
	for _, c := range cs {
		all = append(all, c.Index)
		switch {
		case c.Kind == "iframe":
			iframes = append(iframes, c.Index)
		case b.CrossDomain(page, c):
			cross = append(cross, c.Index)
		}
	}
	rng := stats.AcquireRNG(split.Seed(fmt.Sprintf("pick/%d/%d", walk, step)))
	defer rng.Release()
	switch {
	case len(iframes) > 0 && (len(cross) == 0 || rng.Bool(cfg.IframeBias)):
		return iframes[rng.Intn(len(iframes))]
	case len(cross) > 0:
		return cross[rng.Intn(len(cross))]
	default:
		return all[rng.Intn(len(all))]
	}
}
