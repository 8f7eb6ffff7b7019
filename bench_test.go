// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, each regenerating its rows/series from a shared paper-scale
// crawl and reporting the headline quantity as a benchmark metric, plus
// ablation benchmarks for the design choices DESIGN.md calls out
// (crawler count, session-ID strategy, value matching, synchronization
// heuristics) and micro-benchmarks of the hot substrate paths.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The fixture crawl is built once; per-iteration timings measure the
// analysis that regenerates each table or figure.
package crumbcruncher_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/countermeasures"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/storage"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

var (
	fixOnce sync.Once
	fixRun  *crumbcruncher.Run
	fixErr  error
)

// fixture executes the calibrated paper-scale pipeline once per process.
func fixture(b *testing.B) *crumbcruncher.Run {
	b.Helper()
	fixOnce.Do(func() {
		fixRun, fixErr = crumbcruncher.NewRunner(crumbcruncher.DefaultConfig()).Run(context.Background())
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixRun
}

// --- §3.3: failure rates ------------------------------------------------------

func BenchmarkCrawlFailureRates(b *testing.B) {
	r := fixture(b)
	var fr analysis.FailureRates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr = r.Analysis.FailureRates()
	}
	b.ReportMetric(100*fr.NoCommonElement, "%noMatch(paper:7.6)")
	b.ReportMetric(100*fr.Divergent, "%divergent(paper:1.8)")
	b.ReportMetric(100*fr.ConnectError, "%connect(paper:3.3)")
}

// --- §3.5: fingerprinting experiment --------------------------------------------

func BenchmarkFingerprintingExperiment(b *testing.B) {
	r := fixture(b)
	fps := r.World.Fingerprinters()
	var exp analysis.FPExperiment
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err = r.Analysis.FingerprintingExperiment(fps)
	}
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*exp.OnFingerprinters, "%onFP(paper:13)")
	b.ReportMetric(100*exp.FPMulti.Value(), "%fpMulti(paper:44)")
	b.ReportMetric(100*exp.NonFPMulti.Value(), "%nonFPMulti(paper:52)")
}

// --- §3.7.1: UID lifetimes ------------------------------------------------------

func BenchmarkSessionIDLifetimes(b *testing.B) {
	r := fixture(b)
	var st uid.LifetimeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = uid.ComputeLifetimeStats(r.Cases, r.Lifetimes)
	}
	b.ReportMetric(100*st.Under90Fraction(), "%under90d(paper:16)")
	b.ReportMetric(100*st.Under30Fraction(), "%under30d(paper:9)")
}

// --- §3.7.2: programmatic + manual filtering --------------------------------------

func BenchmarkManualFilter(b *testing.B) {
	r := fixture(b)
	var stats uid.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, stats, err = uid.IdentifyCtx(context.Background(), r.Candidates, uid.Options{LifetimeOf: r.Lifetimes.Lifetime}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.AfterProgrammatic), "reachedManual(paper:1581)")
	b.ReportMetric(float64(stats.ManuallyRemoved), "manuallyRemoved(paper:577)")
	b.ReportMetric(float64(stats.Final), "finalUIDs(paper:~1004)")
}

// --- Table 1 ----------------------------------------------------------------------

func BenchmarkTable1CrawlerCombinations(b *testing.B) {
	r := fixture(b)
	var counts map[uid.Bucket]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts = uid.BucketCounts(r.Cases)
	}
	b.StopTimer()
	b.ReportMetric(float64(counts[uid.BucketPairPlus]), "pairPlus(paper:325)")
	b.ReportMetric(float64(counts[uid.BucketDifferentOnly]), "diffOnly(paper:171)")
	b.ReportMetric(float64(counts[uid.BucketPairOnly]), "pairOnly(paper:20)")
	b.ReportMetric(float64(counts[uid.BucketSingle]), "single(paper:445)")
}

// --- Table 2 ----------------------------------------------------------------------

func BenchmarkTable2Summary(b *testing.B) {
	r := fixture(b)
	var s analysis.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = r.Analysis.Summarize()
	}
	b.StopTimer()
	b.ReportMetric(float64(s.UniqueURLPaths), "urlPaths(paper:10814)")
	b.ReportMetric(float64(s.UniqueURLPathsSmuggling), "smugglingPaths(paper:850)")
	b.ReportMetric(float64(s.UniqueDomainPathsSmuggling), "domainPaths(paper:321)")
	b.ReportMetric(float64(s.DedicatedSmugglers), "dedicated(paper:27)")
	b.ReportMetric(float64(s.MultiPurposeSmugglers), "multiPurpose(paper:187)")
	b.ReportMetric(float64(s.UniqueOriginators), "originators(paper:265)")
	b.ReportMetric(float64(s.UniqueDestinations), "destinations(paper:224)")
}

// --- Table 3 ----------------------------------------------------------------------

func BenchmarkTable3Redirectors(b *testing.B) {
	r := fixture(b)
	var rows []analysis.RedirectorRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = r.Analysis.TopRedirectors(30)
	}
	b.StopTimer()
	if len(rows) > 0 {
		// The paper's top redirector (adclick.g.doubleclick.net) covered
		// 11.2% of domain paths; report our top share.
		b.ReportMetric(rows[0].PctDomainPaths, "%topRedirector(paper:11.2)")
		b.Logf("top redirectors:")
		for i, row := range rows {
			if i >= 10 {
				break
			}
			mark := ""
			if row.MultiPurpose {
				mark = "*"
			}
			b.Logf("  %2d. %-34s %3d (%.1f%%)%s", i+1, row.Host, row.Count, row.PctDomainPaths, mark)
		}
	}
}

// --- Figure 4 ----------------------------------------------------------------------

func BenchmarkFigure4Organizations(b *testing.B) {
	r := fixture(b)
	at := r.Attributor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.Analysis.TopOrganizations(at, 19)
	}
	b.StopTimer()
	origs, dests := r.Analysis.TopOrganizations(at, 5)
	for _, e := range origs {
		b.Logf("originator org: %-28s %d", e.Key, e.Count)
	}
	for _, e := range dests {
		b.Logf("destination org: %-28s %d", e.Key, e.Count)
	}
}

// --- Figure 5 ----------------------------------------------------------------------

func BenchmarkFigure5Categories(b *testing.B) {
	r := fixture(b)
	tax := r.Taxonomy()
	var co, cd map[string]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co, cd = r.Analysis.CategoryBreakdown(tax)
	}
	b.StopTimer()
	// The paper's most common originator category is News/Weather/Information.
	b.ReportMetric(float64(co["News/Weather/Information"]), "newsOriginators")
	b.ReportMetric(float64(cd["Shopping"]), "shoppingDestinations")
	b.Logf("originator categories: %v", co)
	b.Logf("destination categories: %v", cd)
}

// --- Figure 6 ----------------------------------------------------------------------

func BenchmarkFigure6ThirdParties(b *testing.B) {
	r := fixture(b)
	var entries int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries = len(r.Analysis.ThirdPartyReceivers(20))
	}
	b.ReportMetric(float64(entries), "thirdPartyDomains")
	b.StopTimer()
	for _, e := range r.Analysis.ThirdPartyReceivers(5) {
		b.Logf("third party receiving UIDs: %-24s %d requests", e.Key, e.Count)
	}
}

// --- Figure 7 ----------------------------------------------------------------------

func BenchmarkFigure7RedirectorCounts(b *testing.B) {
	r := fixture(b)
	var hist []analysis.RedirectorBucket
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist = r.Analysis.RedirectorHistogram()
	}
	b.StopTimer()
	for _, bucket := range hist {
		b.Logf("%2d redirectors: no-dedicated=%-4d one=%-4d two+=%d",
			bucket.Redirectors, bucket.NoDedicated, bucket.OneDedicated, bucket.TwoPlusDedicated)
	}
	// Shape check the paper emphasises: longer paths have more dedicated
	// smugglers.
	if len(hist) > 2 {
		long := hist[2].OneDedicated + hist[2].TwoPlusDedicated
		b.ReportMetric(float64(long), "dedicatedIn2RedirectorPaths")
	}
}

// --- Figure 8 ----------------------------------------------------------------------

func BenchmarkFigure8PathPortions(b *testing.B) {
	r := fixture(b)
	var portions map[analysis.Portion]analysis.PortionCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		portions = r.Analysis.PathPortions()
	}
	b.StopTimer()
	for _, p := range analysis.Portions {
		pc := portions[p]
		b.Logf("%-42s dedicated=%-4d none=%d", p, pc.WithDedicated, pc.WithoutDedicated)
	}
	full := portions[analysis.PortionFull].Total() + portions[analysis.PortionOriginDest].Total()
	partial := portions[analysis.PortionOriginRed].Total() +
		portions[analysis.PortionRedirDest].Total() + portions[analysis.PortionRedirRedir].Total()
	b.ReportMetric(float64(full), "fullPathUIDs")
	b.ReportMetric(float64(partial), "partialPathUIDs")
}

// --- §5 headline --------------------------------------------------------------------

func BenchmarkHeadlineSmugglingRate(b *testing.B) {
	r := fixture(b)
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rate = r.Analysis.SmugglingRate()
	}
	b.ReportMetric(100*rate, "%smuggling(paper:8.11)")
}

// --- §8 bounce tracking ---------------------------------------------------------------

func BenchmarkBounceTracking(b *testing.B) {
	r := fixture(b)
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rate = r.Analysis.BounceRate()
	}
	b.ReportMetric(100*rate, "%bounce(paper:2.7)")
	b.ReportMetric(100*(rate+r.Analysis.SmugglingRate()), "%combined(paper:10.8)")
}

// --- §5.1 / §7.1: blocklist coverage ----------------------------------------------------

func BenchmarkDisconnectCoverage(b *testing.B) {
	r := fixture(b)
	list := r.DisconnectDomains()
	dedicated := r.Analysis.DedicatedSmugglers()
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap = list.MissingFraction(dedicated)
	}
	b.ReportMetric(100*gap, "%missing(paper:41)")
}

func BenchmarkEasyListCoverage(b *testing.B) {
	r := fixture(b)
	list := r.EasyList()
	urls := r.Analysis.SmugglingURLs()
	var blocked float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocked = list.BlockedFraction(urls)
	}
	b.ReportMetric(100*blocked, "%blocked(paper:6)")
}

// --- §6: login-page breakage -------------------------------------------------------------

func BenchmarkLoginBreakage(b *testing.B) {
	// A dedicated world with enough token-gated login pages for a
	// ten-page sample, as in the paper.
	cfg := web.SmallConfig()
	cfg.NumSites = 200
	cfg.NumSyncOrgs = 8
	cfg.ConnectFailRate = 0
	summary := loginBreakage(b, cfg, 10)
	b.ReportMetric(float64(summary["no change"]), "unchanged(paper:7)")
	b.ReportMetric(float64(summary["minor visual change"]), "minor(paper:1)")
	b.ReportMetric(float64(summary["missing autofill"]+summary["redirected elsewhere"]), "broken(paper:2)")
}

// --- Ablations ------------------------------------------------------------------------------

// BenchmarkAblationTwoVsFourCrawlers compares prior work's two-crawler
// setup against CrumbCruncher's four (§3.2, §8.1).
func BenchmarkAblationTwoVsFourCrawlers(b *testing.B) {
	r := fixture(b)
	opt := uid.Options{Crawlers: []string{crawler.Safari1, crawler.Safari2}}
	var two []*uid.Case
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		two, _, _ = r.Reidentify(opt)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(r.Cases)), "fourCrawlerUIDs")
	b.ReportMetric(float64(len(two)), "twoCrawlerUIDs")
	b.ReportMetric(precisionOf(r, two), "%twoCrawlerPrecision")
	b.ReportMetric(precisionOf(r, r.Cases), "%fourCrawlerPrecision")
}

// BenchmarkAblationLifetimeVsRepeatCrawler compares the repeat-crawler
// session detection against prior work's 90-day and 30-day cookie
// lifetime thresholds (§3.7.1: 16% / 9% of true UIDs would be lost).
func BenchmarkAblationLifetimeVsRepeatCrawler(b *testing.B) {
	r := fixture(b)
	var l90 []*uid.Case
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l90, _, _ = r.Reidentify(uid.Options{
			DisableRepeatCrawler: true,
			LifetimeThreshold:    90 * 24 * time.Hour,
		})
	}
	b.StopTimer()
	l30, _, _ := r.Reidentify(uid.Options{
		DisableRepeatCrawler: true,
		LifetimeThreshold:    30 * 24 * time.Hour,
	})
	b.ReportMetric(float64(len(r.Cases)), "repeatCrawlerUIDs")
	b.ReportMetric(float64(len(l90)), "lifetime90UIDs")
	b.ReportMetric(float64(len(l30)), "lifetime30UIDs")
	lost := missingTrueCases(r, l90)
	b.ReportMetric(float64(lost), "trueUIDsLostBy90d")
}

// BenchmarkAblationExactVsRatcliff compares exact value equality against
// prior work's Ratcliff/Obershelp fuzzy matching at 33% and 45% slack
// (§8.1).
func BenchmarkAblationExactVsRatcliff(b *testing.B) {
	r := fixture(b)
	var fuzzy33 []*uid.Case
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fuzzy33, _, _ = r.Reidentify(uid.Options{SameSlack: 0.33})
	}
	b.StopTimer()
	fuzzy45, _, _ := r.Reidentify(uid.Options{SameSlack: 0.45})
	b.ReportMetric(float64(len(r.Cases)), "exactMatchUIDs")
	b.ReportMetric(float64(len(fuzzy33)), "slack33UIDs")
	b.ReportMetric(float64(len(fuzzy45)), "slack45UIDs")
	// Structured (GA-style) UIDs share most characters across users, so
	// fuzzy matching wrongly unifies them and the baseline loses true
	// UIDs CrumbCruncher keeps.
	b.ReportMetric(float64(missingTrueCases(r, fuzzy45)), "trueUIDsLostByFuzzy")
}

// BenchmarkAblationSyncHeuristics crawls a small world with each matching
// heuristic disabled and reports the synchronization failure rate (§3.3).
func BenchmarkAblationSyncHeuristics(b *testing.B) {
	variants := []struct {
		name string
		h    crawler.Heuristics
	}{
		{"all", crawler.AllHeuristics},
		{"noHref", crawler.Heuristics{Box: true, XPath: true}},
		{"noBox", crawler.Heuristics{Href: true, XPath: true}},
		{"noXPath", crawler.Heuristics{Href: true, Box: true}},
		{"hrefOnly", crawler.Heuristics{Href: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = syncFailureRate(b, v.h)
			}
			b.ReportMetric(100*rate, "%noMatchSteps")
		})
	}
}

// --- Substrate micro-benchmarks ------------------------------------------------------------

func BenchmarkTokenExtraction(b *testing.B) {
	value := `{"redirect":"http%3A%2F%2Fshop.com%2Fland%3Fzclid%3Ddeadbeef01","meta":{"lang":"en-US","ids":["aabbccdd11223344"]}}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := tokens.Extract("blob", value); len(got) == 0 {
			b.Fatal("no tokens")
		}
	}
}

func BenchmarkElementMatching(b *testing.B) {
	lists := syntheticElementLists(40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := crawler.MatchElements(lists, crawler.AllHeuristics); len(got) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkPathCandidates(b *testing.B) {
	r := fixture(b)
	if len(r.Paths) == 0 {
		b.Skip("no paths")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokens.FindCandidates(r.Paths[i%len(r.Paths)])
	}
}

// BenchmarkCrawl runs the full small-config pipeline per iteration —
// world build, four-crawler crawl and post-crawl analysis. It is the
// end-to-end number an instrumentation change would regress first.
func BenchmarkCrawl(b *testing.B) {
	cfg := crumbcruncher.SmallConfig()
	var run *crumbcruncher.Run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		run, err = crumbcruncher.NewRunner(cfg).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(run.Dataset.StepCount()), "steps")
	b.ReportMetric(float64(len(run.Cases)), "uid-cases")
}

func BenchmarkCrawlWalk(b *testing.B) {
	cfg := web.SmallConfig()
	cfg.ConnectFailRate = 0
	w := web.BuildWorld(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := crawler.CrawlContext(context.Background(), crawler.Config{
			Seed:    cfg.Seed,
			Network: w.Network(),
			Seeders: w.Seeders(),
			Walks:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ----------------------------------------------------------------------------------

func precisionOf(r *crumbcruncher.Run, cases []*uid.Case) float64 {
	if len(cases) == 0 {
		return 0
	}
	tp := 0
	for _, c := range cases {
		if r.World.Truth().IsUIDParam(c.Group.Name) {
			tp++
		}
	}
	return 100 * float64(tp) / float64(len(cases))
}

// missingTrueCases counts true-UID cases of the full method absent from
// the baseline's output.
func missingTrueCases(r *crumbcruncher.Run, baseline []*uid.Case) int {
	key := func(c *uid.Case) string {
		return fmt.Sprintf("%d/%d/%s", c.Group.Walk, c.Group.Step, c.Group.Name)
	}
	have := map[string]bool{}
	for _, c := range baseline {
		have[key(c)] = true
	}
	missing := 0
	for _, c := range r.Cases {
		if r.World.Truth().IsUIDParam(c.Group.Name) && !have[key(c)] {
			missing++
		}
	}
	return missing
}

var (
	syncRateMu    sync.Mutex
	syncRateCache = map[crawler.Heuristics]float64{}
)

// syncFailureRate crawls a small world under a heuristic mask, cached per
// mask so repeated benchmark iterations stay cheap.
func syncFailureRate(b *testing.B, h crawler.Heuristics) float64 {
	syncRateMu.Lock()
	defer syncRateMu.Unlock()
	if rate, ok := syncRateCache[h]; ok {
		return rate
	}
	cfg := web.SmallConfig()
	w := web.BuildWorld(cfg)
	ds, err := crawler.CrawlContext(context.Background(), crawler.Config{
		Seed:       cfg.Seed,
		Network:    w.Network(),
		Seeders:    w.Seeders(),
		Walks:      60,
		Heuristics: h,
	})
	if err != nil {
		b.Fatal(err)
	}
	total := ds.StepCount()
	rate := 0.0
	if total > 0 {
		rate = float64(ds.OutcomeCounts()[crawler.OutcomeNoCommonElement]) / float64(total)
	}
	syncRateCache[h] = rate
	return rate
}

// syntheticElementLists builds three near-identical element lists, the
// controller's per-step workload.
func syntheticElementLists(n int) map[string][]crawler.Element {
	mk := func(client int) []crawler.Element {
		var out []crawler.Element
		for i := 0; i < n; i++ {
			e := crawler.Element{
				Index:     i,
				Kind:      "a",
				Href:      fmt.Sprintf("http://site%d.com/p/%d?uid=client%d", i%7, i, client),
				AttrNames: []string{"href", "class"},
				XPath:     fmt.Sprintf("/html[1]/body[1]/div[1]/a[%d]", i+1),
			}
			e.Box.X = 10 * i
			e.Box.W, e.Box.H = 160, 18
			if i%5 == 0 {
				e.Kind = "iframe"
				e.Href = ""
				e.AttrNames = []string{"src", "width", "height"}
				e.Box.W, e.Box.H = 300, 250
			}
			out = append(out, e)
		}
		return out
	}
	return map[string][]crawler.Element{
		crawler.Safari1: mk(1),
		crawler.Safari2: mk(2),
		crawler.Chrome3: mk(3),
	}
}

// loginBreakage runs the §6 experiment over up to n account pages.
func loginBreakage(b *testing.B, cfg web.Config, n int) map[string]int {
	b.Helper()
	w := web.BuildWorld(cfg)
	var pages []string
	for _, s := range w.Sites() {
		if s.HasAccount && len(pages) < n {
			atok := ident.UID(cfg.Seed, s.Domain, "sso", "bench-user")
			pages = append(pages, "http://"+s.Domain+"/account?atok="+atok)
		}
	}
	counts := map[string]int{}
	for i, page := range pages {
		br := browser.New(browser.Config{
			Seed:      cfg.Seed,
			ProfileID: "bench-user",
			ClientID:  fmt.Sprintf("bench-%d", i),
			Machine:   "bench-machine",
			Policy:    storage.Partitioned,
			Network:   w.Network(),
		})
		res := countermeasures.EvaluateBreakage(br, page, func(name, _ string) bool {
			return name == "atok"
		})
		counts[string(res.Class)]++
	}
	return counts
}

// --- §7.1: Safari ITP-style classification ------------------------------------

// BenchmarkITPClassifier measures Safari's heuristic tracker classifier
// over the crawl's navigation paths: how many hosts it flags and how much
// of the dedicated-smuggler population it covers.
func BenchmarkITPClassifier(b *testing.B) {
	r := fixture(b)
	var classified []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		itp := countermeasures.NewITPClassifier()
		for _, p := range r.Paths {
			itp.ObservePath(p)
		}
		classified = itp.Classified()
	}
	b.StopTimer()
	set := map[string]bool{}
	for _, h := range classified {
		set[h] = true
	}
	dedicated := r.Analysis.DedicatedSmugglers()
	covered := 0
	for _, h := range dedicated {
		if set[h] {
			covered++
		}
	}
	b.ReportMetric(float64(len(classified)), "hostsClassified")
	if len(dedicated) > 0 {
		b.ReportMetric(100*float64(covered)/float64(len(dedicated)), "%dedicatedCovered")
	}
}

// --- §7: countermeasure effectiveness -------------------------------------------

// BenchmarkCountermeasureEffectiveness measures, over the observed
// smuggling URLs, how many Brave-style debouncing rewrites and how many
// the paper's query-stripping mitigation cleans.
func BenchmarkCountermeasureEffectiveness(b *testing.B) {
	r := fixture(b)
	urls := r.Analysis.SmugglingURLs()
	known := map[string]bool{}
	for _, p := range r.Analysis.SmugglerParamNames() {
		known[p] = true
	}
	deb := countermeasures.NewDebouncer(r.Analysis.DedicatedSmugglers(), r.Analysis.SmugglerParamNames())
	var debounced, stripped int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		debounced, stripped = 0, 0
		for _, raw := range urls {
			if deb.Debounce(raw).Debounced {
				debounced++
			}
			if countermeasures.StripSuspectedUIDs(raw, known) != raw {
				stripped++
			}
		}
	}
	b.StopTimer()
	if len(urls) > 0 {
		b.ReportMetric(100*float64(debounced)/float64(len(urls)), "%debounced")
		b.ReportMetric(100*float64(stripped)/float64(len(urls)), "%stripped")
	}
}

// BenchmarkAblationSequentialBaseline compares prior work's sequential
// single-crawler user simulation (Koop et al., §8.1) against
// CrumbCruncher's synchronized crawlers on the same world: without
// synchronization, nothing guarantees a site is observed by more than one
// user, so a large share of tokens is unconfirmable and must be dropped.
func BenchmarkAblationSequentialBaseline(b *testing.B) {
	var seqStats uid.SequentialStats
	var seqCases []*uid.Case
	var syncCases int
	for i := 0; i < b.N; i++ {
		cfg := web.SmallConfig()
		cfg.NumSites = 120
		world := web.BuildWorld(cfg)
		ccfg := crawler.Config{
			Seed:    cfg.Seed,
			Network: world.Network(),
			Seeders: world.Seeders(),
			Walks:   80,
		}
		seqDS, err := crawler.SequentialCrawl(ccfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		seqIdx := uid.BuildLifetimeIndex(seqDS)
		seqCases, seqStats = uid.SequentialIdentify(
			candidates(b, seqDS), seqIdx.Lifetime, 90*24*time.Hour)

		// The synchronized system on a fresh identical world.
		world2 := web.BuildWorld(cfg)
		ccfg.Network = world2.Network()
		ccfg.Seeders = world2.Seeders()
		syncDS, err := crawler.CrawlContext(context.Background(), ccfg)
		if err != nil {
			b.Fatal(err)
		}
		cases, _, err := uid.IdentifyCtx(context.Background(), candidates(b, syncDS), uid.Options{})
		if err != nil {
			b.Fatal(err)
		}
		syncCases = len(cases)
	}
	b.ReportMetric(float64(len(seqCases)), "sequentialUIDs")
	b.ReportMetric(float64(syncCases), "synchronizedUIDs")
	b.ReportMetric(float64(seqStats.SingleUser), "unconfirmableSingleUser")
}

// candidates reconstructs ds's navigation paths and extracts their
// token candidates on one worker.
func candidates(b *testing.B, ds *crawler.Dataset) []*tokens.Candidate {
	b.Helper()
	paths, err := tokens.PathsFromDatasetCtx(context.Background(), ds, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := tokens.AllCandidatesCtx(context.Background(), paths, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	return cands
}

// --- §6: referer-based smuggling (the pipeline's designed blind spot) -----------

// BenchmarkLimitationRefererSmuggling counts UID transfers riding the
// Referer header, which the pipeline cannot see (§6: CrumbCruncher only
// inspects navigation URL query parameters). Ground truth makes the
// blind spot measurable.
func BenchmarkLimitationRefererSmuggling(b *testing.B) {
	r := fixture(b)
	var missed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missed = r.MissedRefererTransfers()
	}
	b.ReportMetric(float64(missed), "invisibleRefererTransfers")
	b.ReportMetric(float64(len(r.Cases)), "visibleUIDCases")
}

// --- Streaming execution engine ----------------------------------------------

// BenchmarkExecuteStreaming times the full pipeline — the crawl with
// every finished walk flowing into the analysis engine — on the same
// seed at worker-pool sizes 1 and 4, and reports peak live residency
// per pool size as a metric.
func BenchmarkExecuteStreaming(b *testing.B) {
	base := crumbcruncher.SmallConfig()
	base.Walks = 120
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism-%d/stream", par), func(b *testing.B) {
			cfg := base
			cfg.Parallelism = par
			var peak float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				w := newHeapWatermark()
				b.StartTimer()
				if _, err := crumbcruncher.NewRunner(cfg).Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				peak += w.stop()
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(peak/float64(b.N), "peak-heap-MB")
		})
	}
}

// heapWatermark periodically forces a collection and samples the heap
// that survives it, keeping the high-water mark: peak *live* residency,
// not the GC sawtooth's amplitude (raw HeapAlloc peaks measure mostly
// collector pacing and flip sign between identical runs). The forced
// collections cost a few percent of wall-clock, paid equally by every
// variant under comparison.
type heapWatermark struct {
	done chan struct{}
	out  chan float64
}

func newHeapWatermark() *heapWatermark {
	w := &heapWatermark{done: make(chan struct{}), out: make(chan float64, 1)}
	go func() {
		var peak uint64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.done:
				w.out <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	return w
}

func (w *heapWatermark) stop() float64 {
	close(w.done)
	return <-w.out
}

// --- Parallel post-crawl analysis --------------------------------------------

// BenchmarkAnalyzeParallel re-runs the entire post-crawl pipeline (path
// reconstruction, candidate extraction, UID identification, aggregation)
// over the paper-scale fixture crawl at worker-pool sizes 1 and NumCPU.
// Results are bit-identical at every size (see
// TestParallelAnalysisDeterminism); the parallel variant should show the
// near-linear speedup the sharded pipeline is built for.
func BenchmarkAnalyzeParallel(b *testing.B) {
	r := fixture(b)
	pars := []int{1, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		// Single-core machine: the speedup is unmeasurable, but still
		// benchmark the concurrent path so its overhead stays visible.
		pars = []int{1, 4}
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			cfg := r.Config
			cfg.Parallelism = par
			b.ResetTimer()
			var out *crumbcruncher.Run
			for i := 0; i < b.N; i++ {
				var err error
				out, err = crumbcruncher.NewRunner(cfg).Reanalyze(context.Background(), r)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(out.Cases)), "uid-cases")
		})
	}
}
