package core

import (
	"context"
	"sync"
	"testing"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/countermeasures"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

var (
	runOnce sync.Once
	testRun *Run
	runErr  error
)

// sharedRun executes the small pipeline once per test binary.
func sharedRun(t *testing.T) *Run {
	t.Helper()
	runOnce.Do(func() {
		cfg := SmallConfig()
		cfg.Walks = 60
		testRun, runErr = ExecuteContext(context.Background(), cfg)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return testRun
}

func TestPipelineFindsSmuggling(t *testing.T) {
	r := sharedRun(t)
	if len(r.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if len(r.Cases) == 0 {
		t.Fatal("no confirmed UID cases")
	}
	rate := r.Analysis.SmugglingRate()
	if rate <= 0 || rate > 0.5 {
		t.Fatalf("smuggling rate = %.4f, want (0, 0.5]", rate)
	}
	t.Logf("candidates=%d cases=%d rate=%.2f%% stats=%+v",
		len(r.Candidates), len(r.Cases), 100*rate, r.Stats)
}

// TestAnalyzeRejectsMisindexedWalks pins the analysis engine's slot
// guard: a walk source whose walks do not map one to one onto
// [0, WalkCount) fails the run with an error instead of panicking or
// merging two walks into one slot.
func TestAnalyzeRejectsMisindexedWalks(t *testing.T) {
	r := sharedRun(t)
	w0 := r.Dataset.Walks[0]
	cases := []struct {
		name  string
		walks []*crawler.Walk
	}{
		{"out of range", []*crawler.Walk{w0, {Index: 7}}},
		{"delivered twice", []*crawler.Walk{w0, w0}},
		{"nil walk", []*crawler.Walk{w0, nil}},
	}
	cfg := r.Config
	cfg.Parallelism = 2
	for _, tc := range cases {
		ds := &crawler.Dataset{Seed: r.Dataset.Seed, Crawlers: r.Dataset.Crawlers, Walks: tc.walks}
		run, err := AnalyzeSource(context.Background(), cfg, r.World, ds)
		if err == nil || run != nil {
			t.Errorf("%s: AnalyzeSource returned run %t, err %v; want only an error", tc.name, run != nil, err)
		}
	}
}

func TestPipelinePrecisionAgainstTruth(t *testing.T) {
	r := sharedRun(t)
	eval := r.EvaluateTruth()
	if eval.Cases == 0 {
		t.Fatal("nothing to evaluate")
	}
	if p := eval.Precision(); p < 0.9 {
		t.Fatalf("precision = %.3f (%d FP of %d) — filters are letting junk through",
			p, eval.FalsePositive, eval.Cases)
	}
}

func TestPipelineSummaryShape(t *testing.T) {
	r := sharedRun(t)
	s := r.Analysis.Summarize()
	if s.UniqueURLPaths == 0 || s.UniqueURLPathsSmuggling == 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.UniqueURLPathsSmuggling > s.UniqueURLPaths {
		t.Fatal("smuggling paths exceed total paths")
	}
	if s.UniqueDomainPathsSmuggling > s.UniqueURLPathsSmuggling {
		t.Fatal("domain paths exceed URL paths")
	}
	if s.DedicatedSmugglers+s.MultiPurposeSmugglers != s.UniqueRedirectors {
		t.Fatal("smuggler split doesn't sum to redirectors")
	}
	if s.UniqueOriginators == 0 || s.UniqueDestinations == 0 {
		t.Fatalf("no participants: %+v", s)
	}
}

func TestPipelineDedicatedClassificationAgainstTruth(t *testing.T) {
	r := sharedRun(t)
	truth := r.World.Truth()
	dedicated := r.Analysis.DedicatedSmugglers()
	if len(dedicated) == 0 {
		t.Fatal("no dedicated smugglers classified")
	}
	for _, host := range dedicated {
		// Every classified host must at least be a true smuggling
		// redirector. A multi-purpose host (e.g. an SSO sign-in page)
		// may be classified dedicated when the crawl happened never to
		// observe its user-facing role — the sampling limitation the
		// paper itself notes for its conservative heuristic.
		if !truth.IsSmuggler(host) {
			t.Errorf("host %s classified dedicated but is not a smuggler at all", host)
		}
		if !truth.IsDedicated(host) {
			t.Logf("note: %s classified dedicated; truth says multi-purpose (not observed as endpoint in this crawl)", host)
		}
	}
}

func TestPipelineTable1Buckets(t *testing.T) {
	r := sharedRun(t)
	counts := uid.BucketCounts(r.Cases)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(r.Cases) {
		t.Fatalf("bucket total %d != cases %d", total, len(r.Cases))
	}
	t.Logf("table 1: %v", counts)
}

func TestPipelineFigures(t *testing.T) {
	r := sharedRun(t)
	origs, dests := r.Analysis.TopOrganizations(r.Attributor(), 10)
	if len(origs) == 0 || len(dests) == 0 {
		t.Fatal("figure 4 empty")
	}
	co, cd := r.Analysis.CategoryBreakdown(r.Taxonomy())
	if len(co) == 0 || len(cd) == 0 {
		t.Fatal("figure 5 empty")
	}
	hist := r.Analysis.RedirectorHistogram()
	if len(hist) == 0 {
		t.Fatal("figure 7 empty")
	}
	totalPaths := 0
	for _, b := range hist {
		totalPaths += b.Total()
	}
	if totalPaths != r.Analysis.Summarize().UniqueURLPathsSmuggling {
		t.Fatalf("figure 7 paths %d != smuggling paths %d",
			totalPaths, r.Analysis.Summarize().UniqueURLPathsSmuggling)
	}
	portions := r.Analysis.PathPortions()
	totalUIDs := 0
	for _, pc := range portions {
		totalUIDs += pc.Total()
	}
	if totalUIDs != len(r.Cases) {
		t.Fatalf("figure 8 UIDs %d != cases %d", totalUIDs, len(r.Cases))
	}
}

func TestPipelineThirdParties(t *testing.T) {
	r := sharedRun(t)
	tps := r.Analysis.ThirdPartyReceivers(20)
	if len(tps) == 0 {
		t.Fatal("figure 6 empty — no third-party UID leakage observed")
	}
}

func TestPipelineCoverageGaps(t *testing.T) {
	r := sharedRun(t)
	gap := r.DisconnectDomains().MissingFraction(r.Analysis.DedicatedSmugglers())
	if gap <= 0 || gap >= 1 {
		t.Logf("disconnect gap = %.2f (extreme values possible at small scale)", gap)
	}
	blocked := r.EasyList().BlockedFraction(r.Analysis.SmugglingURLs())
	if blocked < 0 || blocked > 0.5 {
		t.Fatalf("easylist blocked fraction = %.3f", blocked)
	}
}

func TestPipelineReidentifyAblation(t *testing.T) {
	r := sharedRun(t)
	two, _, _ := r.Reidentify(uid.Options{Crawlers: []string{crawler.Safari1, crawler.Safari2}})
	// The two-crawler baseline must miss true UIDs the full method found
	// (everything observed only on Chrome-3 or only on the repeat pair)…
	key := func(c *uid.Case) string {
		return c.Group.Name + "/" + string(rune(c.Group.Walk)) + "/" + string(rune(c.Group.Step))
	}
	twoSet := map[string]bool{}
	for _, c := range two {
		twoSet[key(c)] = true
	}
	missed := 0
	for _, c := range r.Cases {
		if !twoSet[key(c)] {
			missed++
		}
	}
	if missed == 0 {
		t.Fatal("two-crawler baseline missed nothing — single-crawler cases absent?")
	}
	// …and, lacking Safari-1R, it admits session IDs the full method
	// discarded, so its precision against ground truth cannot be higher.
	truth := r.World.Truth()
	precision := func(cases []*uid.Case) float64 {
		if len(cases) == 0 {
			return 1
		}
		tp := 0
		for _, c := range cases {
			if truth.IsUIDParam(c.Group.Name) {
				tp++
			}
		}
		return float64(tp) / float64(len(cases))
	}
	pFull, pTwo := precision(r.Cases), precision(two)
	if pTwo > pFull+1e-9 {
		t.Fatalf("two-crawler precision %.3f exceeds full method %.3f", pTwo, pFull)
	}
	t.Logf("full=%d (p=%.3f) two-crawler=%d (p=%.3f) missed=%d", len(r.Cases), pFull, len(two), pTwo, missed)
}

func TestPipelineBounceTracking(t *testing.T) {
	r := sharedRun(t)
	if r.Analysis.BounceRate() <= 0 {
		t.Fatal("no bounce tracking observed")
	}
}

func TestPipelineFingerprintingExperiment(t *testing.T) {
	r := sharedRun(t)
	exp, err := r.Analysis.FingerprintingExperiment(r.World.Fingerprinters())
	if err != nil {
		t.Skipf("degenerate at small scale: %v", err)
	}
	if exp.FPMulti.Trials+exp.NonFPMulti.Trials != len(r.Cases) {
		t.Fatal("experiment does not cover all cases")
	}
}

func TestPipelineFailureRates(t *testing.T) {
	r := sharedRun(t)
	fr := r.Analysis.FailureRates()
	if fr.Steps == 0 {
		t.Fatal("no steps")
	}
	if fr.NoCommonElement < 0 || fr.NoCommonElement > 0.5 {
		t.Fatalf("no-common-element rate = %.3f", fr.NoCommonElement)
	}
	t.Logf("failure rates: %+v", fr)
}

func TestPipelineSessionLifetimes(t *testing.T) {
	r := sharedRun(t)
	st := uid.ComputeLifetimeStats(r.Cases, r.Lifetimes)
	if st.WithCookie == 0 {
		t.Skip("no UID matched a stored cookie at small scale")
	}
	if st.Under90Days < st.Under30Days {
		t.Fatal("lifetime stats inconsistent")
	}
}

func TestPipelineIgnoresCookieSyncing(t *testing.T) {
	// Cookie syncing (§8.2) shares UIDs between third parties on one
	// page via beacons — it never crosses first-party contexts through a
	// navigation, so it must produce no smuggling cases.
	r := sharedRun(t)
	for _, c := range r.Cases {
		if c.Group.Name == "puid" || c.Group.Name == "partner_uid" {
			t.Fatalf("cookie-sync token flagged as smuggling: %s", c.Group.Name)
		}
	}
}

func TestITPClassifierCoverage(t *testing.T) {
	// Safari's ITP-style heuristic (§7.1) over the crawl's paths: every
	// host it classifies must truly be a navigational redirector, and it
	// should find a good share of the hosts our analysis classifies as
	// dedicated smugglers.
	r := sharedRun(t)
	itp := countermeasures.NewITPClassifier()
	for _, p := range r.Paths {
		itp.ObservePath(p)
	}
	classified := map[string]bool{}
	for _, h := range itp.Classified() {
		classified[h] = true
	}
	if len(classified) == 0 {
		t.Fatal("ITP classified nothing")
	}
	dedicated := r.Analysis.DedicatedSmugglers()
	if len(dedicated) == 0 {
		t.Skip("no dedicated smugglers at this scale")
	}
	covered := 0
	for _, h := range dedicated {
		if classified[h] {
			covered++
		}
	}
	if covered == 0 {
		t.Fatalf("ITP covered none of %d dedicated smugglers", len(dedicated))
	}
	t.Logf("ITP classified %d hosts, covering %d/%d dedicated smugglers",
		len(classified), covered, len(dedicated))
}

func TestRefererSmugglingInvisibleToPipeline(t *testing.T) {
	// §6 limitation: UIDs riding the Referer header never become cases,
	// but the evaluation harness can count them via ground truth.
	r := sharedRun(t)
	refSmugglers := map[string]bool{}
	for _, tr := range r.World.Trackers() {
		if tr.RefererSmuggler {
			refSmugglers[tr.Param] = true
		}
	}
	if len(refSmugglers) == 0 {
		t.Skip("no referer smugglers in this world")
	}
	for _, c := range r.Cases {
		if refSmugglers[c.Group.Name] {
			t.Fatalf("referer-smuggled param %s surfaced as a case — it should be invisible", c.Group.Name)
		}
	}
	missed := r.MissedRefererTransfers()
	t.Logf("referer transfers invisible to the pipeline: %d", missed)
}

func TestStorageSourceBreakdown(t *testing.T) {
	r := sharedRun(t)
	breakdown := r.Analysis.StorageSourceBreakdown()
	total := 0
	for _, n := range breakdown {
		total += n
	}
	if total != len(r.Cases) {
		t.Fatalf("breakdown covers %d of %d cases", total, len(r.Cases))
	}
	// Both originator-storage-backed UIDs (decorator cookies) and
	// query-only UIDs (ad partition IDs minted server-side) must exist —
	// §3.6's "tokens are also not required to appear as cookies or local
	// storage values".
	if breakdown["originator cookie"] == 0 {
		t.Error("no cookie-backed UIDs")
	}
	if breakdown["query parameters only"] == 0 {
		t.Error("no query-only UIDs")
	}
	t.Logf("storage sources: %v", breakdown)
}

func TestFailuresByStepNoTrend(t *testing.T) {
	// §3.3: failure probability should be independent of the step index.
	r := sharedRun(t)
	rows := r.Analysis.FailuresByStep()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Sanity: early steps must have the most attempts (walks die off).
	if len(rows) > 2 && rows[0].Attempts < rows[len(rows)-1].Attempts {
		t.Fatal("attempts should not grow with step index")
	}
	for _, row := range rows {
		if row.Attempts > 0 && (row.NoCommonElement < 0 || row.NoCommonElement > 1) {
			t.Fatalf("rate out of range: %+v", row)
		}
	}
}

func TestPrecisionVacuousTruth(t *testing.T) {
	// An empty run made no false claims: precision is 1.0 (vacuous
	// truth), not 0 — dashboards must not read "no cases" as "0%
	// precise".
	if p := (TruthEval{}).Precision(); p != 1 {
		t.Fatalf("empty TruthEval precision = %v, want 1", p)
	}
	e := TruthEval{Cases: 4, TruePositive: 3, FalsePositive: 1}
	if p := e.Precision(); p != 0.75 {
		t.Fatalf("precision = %v, want 0.75", p)
	}
}

func TestCountRefererTransfersMultiValuedParams(t *testing.T) {
	// A Referer carrying the same UID parameter twice with different
	// values is two distinct transfers; the same (param, value) pair
	// seen twice in one step is one.
	rec := &crawler.CrawlerStep{
		Crawler: crawler.Safari1,
		Requests: []browser.RequestRecord{
			{
				Kind:    browser.KindNavigation,
				URL:     "http://dest.com/land",
				Referer: "http://origin.com/page?uid=aaaa1111&uid=bbbb2222&lang=en",
			},
			{ // duplicate request: same values must not double-count
				Kind:    browser.KindNavigation,
				URL:     "http://dest.com/land",
				Referer: "http://origin.com/page?uid=aaaa1111&uid=bbbb2222",
			},
			{ // same-site navigation: never counted
				Kind:    browser.KindNavigation,
				URL:     "http://origin.com/other",
				Referer: "http://origin.com/page?uid=cccc3333",
			},
			{ // UID also present on the target URL: the pipeline sees it
				Kind:    browser.KindNavigation,
				URL:     "http://dest.com/land?uid=dddd4444",
				Referer: "http://origin.com/page?uid=dddd4444",
			},
		},
	}
	walk := &crawler.Walk{
		Index: 0,
		Steps: []*crawler.Step{{
			Walk: 0, Index: 1,
			Records: map[string]*crawler.CrawlerStep{crawler.Safari1: rec},
		}},
	}
	isUID := func(param string) bool { return param == "uid" }
	if got := countWalkRefererTransfers(walk, isUID, map[string]bool{}); got != 2 {
		t.Fatalf("countWalkRefererTransfers = %d, want 2 (both values of the repeated param)", got)
	}
}

func TestConfigMachinesPlumbed(t *testing.T) {
	// DefaultConfig keeps the paper's 12 EC2 instances; SmallConfig must
	// not spread 4 walks across 12 phantom fingerprint surfaces.
	if got := DefaultConfig().Machines; got != 12 {
		t.Fatalf("DefaultConfig().Machines = %d, want 12", got)
	}
	if got := SmallConfig().Machines; got != 0 {
		t.Fatalf("SmallConfig().Machines = %d, want 0 (single machine)", got)
	}
	// The knob must reach the crawl rather than being hard-coded: the
	// crawler config Execute builds must carry exactly the configured
	// machine count (a previous version pinned 12 for every run).
	cfg := SmallConfig()
	cfg.Machines = 5
	cfg.NoIframes = true
	world := web.BuildWorld(cfg.World)
	ccfg := cfg.crawlConfig(world)
	if ccfg.Machines != 5 {
		t.Fatalf("crawlConfig Machines = %d, want 5", ccfg.Machines)
	}
	if !ccfg.NoIframes {
		t.Fatal("crawlConfig dropped NoIframes")
	}
	if ccfg.Seed != cfg.World.Seed || ccfg.Walks != cfg.Walks || ccfg.Parallelism != cfg.Parallelism {
		t.Fatalf("crawlConfig mistranslated: %+v", ccfg)
	}
}
