package analysis

import (
	"context"
	"fmt"
	"net/url"
	"testing"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/category"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/entity"
	"crumbcruncher/internal/filterlist"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
)

// sequential builds the analysis indexes on one worker.
func sequential(t *testing.T, ds *crawler.Dataset, paths []*tokens.Path, cases []*uid.Case) *Analysis {
	t.Helper()
	a, err := NewContext(context.Background(), ds, paths, cases, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// path builds a tokens.Path from URLs.
func path(t *testing.T, crawlerName string, walk, step int, urls ...string) *tokens.Path {
	t.Helper()
	p := &tokens.Path{Walk: walk, Step: step, Crawler: crawlerName, Profile: crawler.ProfileOf(crawlerName)}
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		node := tokens.PathNode{URL: raw, Host: u.Hostname(), Domain: regOf(raw)}
		for name, vs := range u.Query() {
			for _, v := range vs {
				node.Tokens = append(node.Tokens, tokens.Pair{Name: name, Value: v})
			}
		}
		p.Nodes = append(p.Nodes, node)
	}
	return p
}

// caseOn builds a uid.Case whose single candidate traverses p.
func caseOn(p *tokens.Path, name string, firstIdx, lastIdx int, bucket uid.Bucket) *uid.Case {
	cand := &tokens.Candidate{
		Name: name, Value: "val-" + name,
		Walk: p.Walk, Step: p.Step, Crawler: p.Crawler, Profile: p.Profile,
		Path: p, FirstIdx: firstIdx, LastIdx: lastIdx, Crossings: 1,
	}
	return &uid.Case{
		Group: &uid.Group{Walk: p.Walk, Step: p.Step, Name: name,
			Observations: map[string][]*tokens.Candidate{p.Crawler: {cand}}},
		Bucket:     bucket,
		Values:     map[string]string{p.Crawler: cand.Value},
		Candidates: []*tokens.Candidate{cand},
	}
}

// fixture: two smuggling paths (one via a dedicated-style redirector, one
// direct), one bounce path, one plain path.
func testAnalysis(t *testing.T) (*Analysis, []*tokens.Path, []*uid.Case) {
	t.Helper()
	// Dedicated-style redirector r.track.net: two originators, two dests,
	// never an endpoint.
	p1 := path(t, crawler.Safari1, 0, 1,
		"http://news-a.com/", "http://r.track.net/c?x=u1", "http://shop-a.com/land?x=u1")
	p2 := path(t, crawler.Safari1, 1, 1,
		"http://news-b.com/", "http://r.track.net/c?x=u2", "http://shop-b.com/land?x=u2")
	// Multi-purpose: signin.news-a.com is also observed as a destination
	// (p4).
	p3 := path(t, crawler.Safari1, 2, 1,
		"http://news-a.com/", "http://signin.portal.com/login?atok=t1", "http://shop-a.com/account?atok=t1")
	p4 := path(t, crawler.Safari1, 2, 2,
		"http://news-b.com/", "http://signin.portal.com/login")
	// Direct smuggling, no redirector.
	p5 := path(t, crawler.Safari1, 3, 1,
		"http://news-a.com/", "http://shop-b.com/land?y=u3")
	// Bounce path: redirector, no UID case attached.
	p6 := path(t, crawler.Safari1, 4, 1,
		"http://news-b.com/", "http://b.bounce.net/b", "http://shop-a.com/")
	// Plain path.
	p7 := path(t, crawler.Safari1, 5, 1,
		"http://news-a.com/", "http://news-b.com/")

	// Another originator/destination pair for the dedicated rule.
	p8 := path(t, crawler.Safari1, 6, 1,
		"http://blog-c.com/", "http://signin.portal.com/login?atok=t2", "http://shop-b.com/account?atok=t2")

	paths := []*tokens.Path{p1, p2, p3, p4, p5, p6, p7, p8}
	cases := []*uid.Case{
		caseOn(p1, "x", 1, 2, uid.BucketPairPlus),
		caseOn(p2, "x", 1, 2, uid.BucketSingle),
		caseOn(p3, "atok", 1, 2, uid.BucketPairPlus),
		caseOn(p5, "y", 1, 1, uid.BucketSingle),
		caseOn(p8, "atok", 1, 2, uid.BucketSingle),
	}
	ds := &crawler.Dataset{} // figures under test here don't need records
	return sequential(t, ds, paths, cases), paths, cases
}

func TestSummarize(t *testing.T) {
	a, paths, _ := testAnalysis(t)
	s := a.Summarize()
	if s.UniqueURLPaths != len(paths) {
		t.Fatalf("unique paths = %d, want %d", s.UniqueURLPaths, len(paths))
	}
	if s.UniqueURLPathsSmuggling != 5 {
		t.Fatalf("smuggling paths = %d, want 5", s.UniqueURLPathsSmuggling)
	}
	if s.UniqueRedirectors != 2 {
		t.Fatalf("redirectors = %d, want 2 (r.track.net, signin.portal.com)", s.UniqueRedirectors)
	}
	if s.DedicatedSmugglers != 1 || s.MultiPurposeSmugglers != 1 {
		t.Fatalf("dedicated=%d multi=%d, want 1/1", s.DedicatedSmugglers, s.MultiPurposeSmugglers)
	}
	if s.UniqueOriginators != 3 {
		t.Fatalf("originators = %d, want 3", s.UniqueOriginators)
	}
}

func TestDedicatedClassification(t *testing.T) {
	a, _, _ := testAnalysis(t)
	if !a.IsDedicated("r.track.net") {
		t.Fatal("r.track.net: two originators, two destinations, never an endpoint — must be dedicated")
	}
	if a.IsDedicated("signin.portal.com") {
		t.Fatal("signin.portal.com is observed as a destination — must be multi-purpose")
	}
	got := a.DedicatedSmugglers()
	if len(got) != 1 || got[0] != "r.track.net" {
		t.Fatalf("DedicatedSmugglers = %v", got)
	}
}

func TestSmugglingAndBounceRates(t *testing.T) {
	a, paths, _ := testAnalysis(t)
	wantSmuggle := 5.0 / float64(len(paths))
	if got := a.SmugglingRate(); got != wantSmuggle {
		t.Fatalf("smuggling rate = %f, want %f", got, wantSmuggle)
	}
	// Only p6 has a redirector without smuggling (p4 ends AT the sign-in
	// host, which makes it a destination, not a redirector).
	wantBounce := 1.0 / float64(len(paths))
	if got := a.BounceRate(); got != wantBounce {
		t.Fatalf("bounce rate = %f, want %f", got, wantBounce)
	}
}

func TestTopRedirectors(t *testing.T) {
	a, _, _ := testAnalysis(t)
	rows := a.TopRedirectors(0)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// signin.portal.com appears in 2 smuggling domain paths; r.track.net
	// in 2 as well — tie broken by name.
	for _, row := range rows {
		if row.Host == "r.track.net" && row.MultiPurpose {
			t.Fatal("r.track.net marked multi-purpose")
		}
		if row.Host == "signin.portal.com" && !row.MultiPurpose {
			t.Fatal("signin.portal.com not marked multi-purpose")
		}
		if row.PctDomainPaths <= 0 {
			t.Fatal("percentage missing")
		}
	}
}

func TestRedirectorHistogram(t *testing.T) {
	a, _, _ := testAnalysis(t)
	hist := a.RedirectorHistogram()
	if len(hist) != 2 {
		t.Fatalf("hist buckets = %d (max redirectors should be 1)", len(hist))
	}
	if hist[0].Total() != 1 { // p5 only (direct smuggling)
		t.Fatalf("0-redirector paths = %d, want 1", hist[0].Total())
	}
	if hist[1].Total() != 4 {
		t.Fatalf("1-redirector paths = %d, want 4", hist[1].Total())
	}
	// p1/p2 pass through the dedicated r.track.net.
	if hist[1].OneDedicated != 2 {
		t.Fatalf("one-dedicated = %d, want 2", hist[1].OneDedicated)
	}
}

func TestPathPortions(t *testing.T) {
	a, _, cases := testAnalysis(t)
	portions := a.PathPortions()
	total := 0
	for _, pc := range portions {
		total += pc.Total()
	}
	if total != len(cases) {
		t.Fatalf("portion total = %d, want %d", total, len(cases))
	}
	if portions[PortionFull].Total() != 4 {
		t.Fatalf("full-path UIDs = %d, want 4", portions[PortionFull].Total())
	}
	if portions[PortionOriginDest].Total() != 1 {
		t.Fatalf("origin→dest UIDs = %d, want 1", portions[PortionOriginDest].Total())
	}
	if portions[PortionFull].WithDedicated != 2 {
		t.Fatalf("full-path with dedicated = %d, want 2", portions[PortionFull].WithDedicated)
	}
}

func TestClassifyPortionEdges(t *testing.T) {
	p := path(t, crawler.Safari1, 9, 1,
		"http://a.com/", "http://r1.net/c?m=v", "http://r2.net/c?m=v", "http://d.com/")
	// Token on hops 1..2 only: redirector-to-redirector.
	cand := &tokens.Candidate{Path: p, FirstIdx: 2, LastIdx: 2}
	if got := classifyPortion(cand); got != PortionRedirRedir {
		t.Fatalf("got %q", got)
	}
	cand = &tokens.Candidate{Path: p, FirstIdx: 1, LastIdx: 2}
	if got := classifyPortion(cand); got != PortionOriginRed {
		t.Fatalf("got %q", got)
	}
	cand = &tokens.Candidate{Path: p, FirstIdx: 2, LastIdx: 3}
	if got := classifyPortion(cand); got != PortionRedirDest {
		t.Fatalf("got %q", got)
	}
}

func TestTopOrganizations(t *testing.T) {
	a, _, _ := testAnalysis(t)
	at := entity.NewAttributor(nil, entity.NewList(map[string]string{
		"news-a.com": "News Corp A",
		"news-b.com": "News Corp B",
		"blog-c.com": "Blog C",
		"shop-a.com": "Shop A",
		"shop-b.com": "Shop B",
	}))
	origs, dests := a.TopOrganizations(at, 10)
	if len(origs) == 0 || len(dests) == 0 {
		t.Fatal("empty organizations")
	}
	if origs[0].Key != "News Corp A" {
		t.Fatalf("top originator = %q", origs[0].Key)
	}
}

func TestCategoryBreakdown(t *testing.T) {
	a, _, _ := testAnalysis(t)
	tax := category.New(map[string]string{
		"news-a.com": "News", "news-b.com": "News", "blog-c.com": "Hobbies",
		"shop-a.com": "Shopping", "shop-b.com": "Shopping",
	})
	co, cd := a.CategoryBreakdown(tax)
	if co["News"] != 2 {
		t.Fatalf("news originators = %d, want 2 (unique domains)", co["News"])
	}
	if cd["Shopping"] != 2 {
		t.Fatalf("shopping destinations = %d, want 2", cd["Shopping"])
	}
}

func TestSmugglingURLsAndParams(t *testing.T) {
	a, _, _ := testAnalysis(t)
	urls := a.SmugglingURLs()
	if len(urls) == 0 {
		t.Fatal("no smuggling URLs")
	}
	fl := filterlist.Parse([]string{"||r.track.net^"})
	if fl.BlockedFraction(urls) <= 0 {
		t.Fatal("rule should block some smuggling URLs")
	}
	params := a.SmugglerParamNames()
	if len(params) != 3 { // x, y, atok
		t.Fatalf("params = %v", params)
	}
}

func TestFingerprintingExperimentGrouping(t *testing.T) {
	a, _, cases := testAnalysis(t)
	exp, err := a.FingerprintingExperiment([]string{"news-a.com"})
	if err != nil {
		t.Fatal(err)
	}
	if exp.FPMulti.Trials+exp.NonFPMulti.Trials != len(cases) {
		t.Fatal("groups don't partition the cases")
	}
	// Cases originating on news-a.com: p1 (x), p3 (atok), p5 (y) = 3.
	if exp.FPMulti.Trials != 3 {
		t.Fatalf("fp trials = %d, want 3", exp.FPMulti.Trials)
	}
}

// dsWithRecords builds a small dataset with records for the
// request/snapshot-driven analyses.
func dsWithRecords(t *testing.T) (*Analysis, []*uid.Case) {
	t.Helper()
	p1 := path(t, crawler.Safari1, 0, 1,
		"http://news-a.com/", "http://shop-a.com/land?x=val-x")
	c1 := caseOn(p1, "x", 1, 1, uid.BucketSingle)
	c1.Candidates[0].Value = "val-x"
	c1.Values[crawler.Safari1] = "val-x"

	ds := &crawler.Dataset{
		Walks: []*crawler.Walk{{
			Index: 0,
			Steps: []*crawler.Step{{
				Walk: 0, Index: 1, Outcome: crawler.OutcomeOK,
				Records: map[string]*crawler.CrawlerStep{
					crawler.Safari1: {
						Crawler:   crawler.Safari1,
						StartURL:  "http://news-a.com/",
						LandedURL: "http://shop-a.com/land?x=val-x",
						Before: crawler.Snapshot{Cookies: []crawler.CookieRecord{
							{Name: "_trk", Value: "val-x", Domain: "news-a.com"},
						}},
						Requests: []browser.RequestRecord{
							{
								URL:     "http://analytics.net/collect?url=" + url.QueryEscape("http://shop-a.com/land?x=val-x"),
								Kind:    browser.KindBeacon,
								Referer: "http://shop-a.com/land?x=val-x",
							},
							{
								URL:     "http://cleanbeacon.net/g?page=home",
								Kind:    browser.KindBeacon,
								Referer: "http://shop-a.com/land?x=val-x",
							},
						},
					},
				},
			}},
		}},
	}
	return sequential(t, ds, []*tokens.Path{p1}, []*uid.Case{c1}), []*uid.Case{c1}
}

func TestThirdPartyReceivers(t *testing.T) {
	a, _ := dsWithRecords(t)
	got := a.ThirdPartyReceivers(10)
	if len(got) != 1 || got[0].Key != "analytics.net" || got[0].Count != 1 {
		t.Fatalf("receivers = %v", got)
	}
}

func TestStorageSourceBreakdownUnit(t *testing.T) {
	a, cases := dsWithRecords(t)
	got := a.StorageSourceBreakdown()
	if got[SourceCookie] != len(cases) {
		t.Fatalf("breakdown = %v", got)
	}
	if a.Cases()[0] != cases[0] {
		t.Fatal("Cases accessor broken")
	}
}

// countingSource is a walk source that counts single-walk fetches.
type countingSource struct {
	*crawler.Dataset
	fetches int
}

func (s *countingSource) Walk(idx int) *crawler.Walk {
	s.fetches++
	return s.Dataset.Walk(idx)
}

// TestStorageSourceBreakdownFetchesEachWalkOnce checks that the §3.6
// breakdown fetches each walk its cases sit on once, not once per case:
// for a store-backed source every fetch is a decode.
func TestStorageSourceBreakdownFetchesEachWalkOnce(t *testing.T) {
	ds := &crawler.Dataset{}
	var paths []*tokens.Path
	var cases []*uid.Case
	// Cases arrive in walk order; walks 0, 2 and 3 carry several.
	for i, walk := range []int{0, 0, 0, 2, 3, 3, 5} {
		for len(ds.Walks) <= walk {
			w := &crawler.Walk{Index: len(ds.Walks)}
			for step := 1; step <= 2; step++ {
				w.Steps = append(w.Steps, &crawler.Step{Walk: w.Index, Index: step,
					Records: map[string]*crawler.CrawlerStep{crawler.Safari1: {
						Before: crawler.Snapshot{Local: map[string]string{"id": fmt.Sprintf("val-w%d", w.Index)}},
					}}})
			}
			ds.Walks = append(ds.Walks, w)
		}
		p := path(t, crawler.Safari1, walk, 1+i%2, "http://news-a.com/", "http://shop-a.com/land")
		c := caseOn(p, fmt.Sprintf("w%d", walk), 1, 1, uid.BucketSingle)
		paths, cases = append(paths, p), append(cases, c)
	}
	src := &countingSource{Dataset: ds}
	a, err := NewFromSource(context.Background(), src, paths, cases, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := a.StorageSourceBreakdown()
	if got[SourceLocalStorage] != len(cases) {
		t.Fatalf("breakdown = %v, want all %d cases from localStorage", got, len(cases))
	}
	if src.fetches != 4 {
		t.Fatalf("fetched %d walks for cases on 4 distinct walks", src.fetches)
	}
}

func TestFailureRatesAndByStep(t *testing.T) {
	a, _ := dsWithRecords(t)
	fr := a.FailureRates()
	if fr.Steps != 1 || fr.SitesAttempted == 0 {
		t.Fatalf("failure rates = %+v", fr)
	}
	rows := a.FailuresByStep()
	if len(rows) != 1 || rows[0].Attempts != 1 || rows[0].NoCommonElement != 0 {
		t.Fatalf("by step = %+v", rows)
	}
}

func TestRequestCarriesUIDEmbedded(t *testing.T) {
	uids := map[string]bool{"deadbeef01deadbeef": true}
	embedded := "http://a.net/g?url=" + url.QueryEscape("http://shop.com/?z=deadbeef01deadbeef")
	if !requestCarriesUID(embedded, uids) {
		t.Fatal("embedded UID not detected")
	}
	if requestCarriesUID("http://a.net/g?x=1", uids) {
		t.Fatal("false positive")
	}
}
