package uid

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/tokens"
)

// identify runs IdentifyCtx under a context that is never cancelled.
func identify(t *testing.T, cands []*tokens.Candidate, opt Options) ([]*Case, Stats) {
	t.Helper()
	cases, stats, err := IdentifyCtx(context.Background(), cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cases, stats
}

// cand builds a minimal candidate.
func cand(walk, step int, crawlerName, name, value string) *tokens.Candidate {
	return &tokens.Candidate{
		Name: name, Value: value,
		Walk: walk, Step: step,
		Crawler: crawlerName, Profile: crawler.ProfileOf(crawlerName),
		FirstIdx: 1, LastIdx: 2, Crossings: 1,
	}
}

// fullStaticGroup: the classic static smuggling case — all four crawlers,
// per-profile values, pair identical.
func fullStaticGroup(name string) []*tokens.Candidate {
	return []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, name, "aaaa1111bbbb2222"),
		cand(0, 1, crawler.Safari1R, name, "aaaa1111bbbb2222"),
		cand(0, 1, crawler.Safari2, name, "cccc3333dddd4444"),
		cand(0, 1, crawler.Chrome3, name, "eeee5555ffff6666"),
	}
}

func TestIdentifyStaticUID(t *testing.T) {
	cases, stats := identify(t, fullStaticGroup("zclid"), Options{})
	if len(cases) != 1 {
		t.Fatalf("cases = %d, want 1 (stats %+v)", len(cases), stats)
	}
	if cases[0].Bucket != BucketPairPlus {
		t.Fatalf("bucket = %q, want %q", cases[0].Bucket, BucketPairPlus)
	}
	if stats.Final != 1 || stats.Groups != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestIdentifyDiscardsSameAcrossProfiles(t *testing.T) {
	// Fingerprint-derived UID: identical on different profiles.
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, "fpid", "samevalue11112222"),
		cand(0, 1, crawler.Safari2, "fpid", "samevalue11112222"),
	}
	cases, stats := identify(t, cands, Options{})
	if len(cases) != 0 || stats.SameAcrossUsers != 1 {
		t.Fatalf("cases=%d stats=%+v", len(cases), stats)
	}
}

func TestIdentifyDiscardsSessionViaRepeatCrawler(t *testing.T) {
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, "sid", "sessvalue11112222"),
		cand(0, 1, crawler.Safari1R, "sid", "sessvalue33334444"),
		cand(0, 1, crawler.Safari2, "sid", "sessvalue55556666"),
	}
	cases, stats := identify(t, cands, Options{})
	if len(cases) != 0 || stats.SessionByRepeat != 1 {
		t.Fatalf("cases=%d stats=%+v", len(cases), stats)
	}
	// With the repeat crawler disabled, the session ID slips through —
	// the ablation the paper motivates.
	cases, _ = identify(t, cands, Options{DisableRepeatCrawler: true})
	if len(cases) != 1 {
		t.Fatalf("repeat-crawler-off should retain the token: %d", len(cases))
	}
}

func TestIdentifyProgrammaticFilters(t *testing.T) {
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, "t", "1646092800"),    // timestamp
		cand(0, 2, crawler.Safari1, "u", "http://x.com/"), // URL
		cand(0, 3, crawler.Safari1, "s", "abc"),           // short
	}
	cases, stats := identify(t, cands, Options{})
	if len(cases) != 0 {
		t.Fatalf("cases = %d", len(cases))
	}
	if stats.Programmatic[tokens.LooksLikeDate] != 1 ||
		stats.Programmatic[tokens.LooksLikeURL] != 1 ||
		stats.Programmatic[tokens.TooShort] != 1 {
		t.Fatalf("programmatic stats = %+v", stats.Programmatic)
	}
}

func TestIdentifyManualReview(t *testing.T) {
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, "topic", "Dental_internal_whitepaper_topic"),
		cand(0, 2, crawler.Safari1, "x", "4f2a9c1b7d8e0011"),
	}
	cases, stats := identify(t, cands, Options{})
	if len(cases) != 1 || stats.ManuallyRemoved != 1 || stats.AfterProgrammatic != 2 {
		t.Fatalf("cases=%d stats=%+v", len(cases), stats)
	}
	// SkipManual keeps both.
	cases, _ = identify(t, cands, Options{SkipManual: true})
	if len(cases) != 2 {
		t.Fatalf("SkipManual cases = %d", len(cases))
	}
}

func TestBuckets(t *testing.T) {
	mk := func(cands ...*tokens.Candidate) Bucket {
		cases, _ := identify(t, cands, Options{})
		if len(cases) != 1 {
			t.Fatalf("expected 1 case, got %d", len(cases))
		}
		return cases[0].Bucket
	}
	if b := mk(fullStaticGroup("a")...); b != BucketPairPlus {
		t.Fatalf("pair plus: %q", b)
	}
	if b := mk(
		cand(0, 1, crawler.Safari2, "b", "cccc3333dddd4444"),
		cand(0, 1, crawler.Chrome3, "b", "eeee5555ffff6666"),
	); b != BucketDifferentOnly {
		t.Fatalf("different only: %q", b)
	}
	if b := mk(
		cand(0, 1, crawler.Safari1, "c", "aaaa1111bbbb2222"),
		cand(0, 1, crawler.Safari1R, "c", "aaaa1111bbbb2222"),
	); b != BucketPairOnly {
		t.Fatalf("pair only: %q", b)
	}
	if b := mk(cand(0, 1, crawler.Chrome3, "d", "eeee5555ffff6666")); b != BucketSingle {
		t.Fatalf("single: %q", b)
	}
	counts := BucketCounts([]*Case{{Bucket: BucketSingle}, {Bucket: BucketSingle}, {Bucket: BucketPairOnly}})
	if counts[BucketSingle] != 2 || counts[BucketPairOnly] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestTwoCrawlerBaselineLosesSingles(t *testing.T) {
	// Prior work's two-crawler setup cannot see tokens that only
	// appeared on Chrome-3.
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Chrome3, "only3", "eeee5555ffff6666"),
		cand(0, 1, crawler.Safari1, "both", "aaaa1111bbbb2222"),
		cand(0, 1, crawler.Safari2, "both", "cccc3333dddd4444"),
	}
	full, _ := identify(t, cands, Options{})
	two, _ := identify(t, cands, Options{Crawlers: []string{crawler.Safari1, crawler.Safari2}})
	if len(full) != 2 {
		t.Fatalf("full = %d", len(full))
	}
	if len(two) != 1 || two[0].Group.Name != "both" {
		t.Fatalf("two-crawler = %+v", two)
	}
}

func TestRatcliffSlackOverDiscards(t *testing.T) {
	// Two users' UIDs share a long prefix; prior work's 33% slack
	// wrongly calls them "the same" and discards the case.
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, "pfx", "user-aaaa-bbbb-cccc-0001"),
		cand(0, 1, crawler.Safari2, "pfx", "user-aaaa-bbbb-cccc-0002"),
	}
	exact, _ := identify(t, cands, Options{})
	if len(exact) != 1 {
		t.Fatalf("exact = %d", len(exact))
	}
	fuzzy, stats := identify(t, cands, Options{SameSlack: 0.33})
	if len(fuzzy) != 0 || stats.SameAcrossUsers != 1 {
		t.Fatalf("fuzzy = %d, stats = %+v", len(fuzzy), stats)
	}
}

func TestLifetimeThresholdBaseline(t *testing.T) {
	lifetimes := map[string]time.Duration{
		"shortlivedvalue1": 30 * 24 * time.Hour, // 30d < 90d
		"longlivedvalue22": 390 * 24 * time.Hour,
	}
	opt := Options{
		LifetimeThreshold: 90 * 24 * time.Hour,
		LifetimeOf: func(v string) (time.Duration, bool) {
			d, ok := lifetimes[v]
			return d, ok
		},
	}
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, "a", "shortlivedvalue1"),
		cand(0, 2, crawler.Safari1, "b", "longlivedvalue22"),
	}
	cases, stats := identify(t, cands, opt)
	if len(cases) != 1 || cases[0].Group.Name != "b" || stats.SessionByTTL != 1 {
		t.Fatalf("cases=%d stats=%+v", len(cases), stats)
	}
	// CrumbCruncher's method (no threshold) keeps both.
	cases, _ = identify(t, cands, Options{})
	if len(cases) != 2 {
		t.Fatalf("no-threshold cases = %d", len(cases))
	}
}

func TestGroupingAcrossSteps(t *testing.T) {
	// The same name at different steps forms separate groups.
	cands := []*tokens.Candidate{
		cand(0, 1, crawler.Safari1, "x", "val1val1val1val1"),
		cand(0, 2, crawler.Safari1, "x", "val2val2val2val2"),
		cand(1, 1, crawler.Safari1, "x", "val3val3val3val3"),
	}
	groups := GroupCandidates(cands, Options{})
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
}

func TestLifetimeStats(t *testing.T) {
	idx := &LifetimeIndex{byValue: map[string]time.Duration{
		"short30short30short30": 21 * 24 * time.Hour,
		"mid60mid60mid60mid60m": 60 * 24 * time.Hour,
		"long390long390long390": 390 * 24 * time.Hour,
	}}
	mkCase := func(v string) *Case {
		return &Case{Values: map[string]string{crawler.Safari1: v}}
	}
	cases := []*Case{
		mkCase("short30short30short30"),
		mkCase("mid60mid60mid60mid60m"),
		mkCase("long390long390long390"),
		mkCase("unknownvalue-no-cookie"),
	}
	st := ComputeLifetimeStats(cases, idx)
	if st.WithCookie != 3 {
		t.Fatalf("WithCookie = %d", st.WithCookie)
	}
	if st.Under90Days != 2 || st.Under30Days != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Under90Fraction() < 0.6 || st.Under90Fraction() > 0.7 {
		t.Fatalf("under90 = %f", st.Under90Fraction())
	}
}

func TestBuildLifetimeIndexFromDataset(t *testing.T) {
	now := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	ds := &crawler.Dataset{
		Walks: []*crawler.Walk{{
			Steps: []*crawler.Step{{
				Records: map[string]*crawler.CrawlerStep{
					crawler.Safari1: {
						After: crawler.Snapshot{Cookies: []crawler.CookieRecord{
							{Name: "uid", Value: "somevalue1234567", Created: now, Expires: now.Add(45 * 24 * time.Hour)},
							{Name: "sess", Value: "sessval123456789", Created: now},
						}},
					},
				},
			}},
		}},
	}
	idx := BuildLifetimeIndex(ds)
	if lt, ok := idx.Lifetime("somevalue1234567"); !ok || lt != 45*24*time.Hour {
		t.Fatalf("lifetime = %v ok=%v", lt, ok)
	}
	if lt, ok := idx.Lifetime("sessval123456789"); !ok || lt != 0 {
		t.Fatalf("session lifetime = %v ok=%v", lt, ok)
	}
	if _, ok := idx.Lifetime("missing"); ok {
		t.Fatal("missing value reported present")
	}
}

func seqCand(origin, profile, name, value string) *tokens.Candidate {
	p := &tokens.Path{
		Profile: profile,
		Nodes: []tokens.PathNode{
			{URL: "http://" + origin + "/", Host: origin, Domain: origin},
			{URL: "http://dest.com/?x=1", Host: "dest.com", Domain: "dest.com"},
		},
	}
	return &tokens.Candidate{
		Name: name, Value: value, Profile: profile, Crawler: profile,
		Path: p, FirstIdx: 1, LastIdx: 1, Crossings: 1,
	}
}

func TestSequentialIdentify(t *testing.T) {
	cands := []*tokens.Candidate{
		// Two users observed the same (origin, param) with different
		// values: confirmed.
		seqCand("news.com", "user1", "zid", "aaaa1111bbbb2222"),
		seqCand("news.com", "user2", "zid", "cccc3333dddd4444"),
		// Only one user ever saw this one: unconfirmable.
		seqCand("blog.com", "user1", "qid", "eeee5555ffff6666"),
		// Same value across users: not a UID.
		seqCand("shop.com", "user1", "lang", "value-shared-1"),
		seqCand("shop.com", "user2", "lang", "value-shared-1"),
	}
	cases, stats := SequentialIdentify(cands, nil, 0)
	if len(cases) != 1 {
		t.Fatalf("cases = %d, want 1 (stats %+v)", len(cases), stats)
	}
	if got := cases[0].Group.Name; got != "news.com|zid" {
		t.Fatalf("group = %q, want news.com|zid", got)
	}
	if stats.SingleUser != 1 || stats.SameAcrossUsers != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSequentialIdentifyLifetimeThreshold(t *testing.T) {
	cands := []*tokens.Candidate{
		seqCand("a.com", "user1", "zid", "shortlivedvalue1"),
		seqCand("a.com", "user2", "zid", "shortlivedvalu22"),
	}
	lifetimes := func(v string) (time.Duration, bool) { return 30 * 24 * time.Hour, true }
	cases, stats := SequentialIdentify(cands, lifetimes, 90*24*time.Hour)
	if len(cases) != 0 || stats.SessionByTTL != 1 {
		t.Fatalf("cases=%d stats=%+v", len(cases), stats)
	}
}

// Property: identification is invariant to candidate input order.
func TestIdentifyOrderInvariant(t *testing.T) {
	base := []*tokens.Candidate{}
	base = append(base, fullStaticGroup("p1")...)
	base = append(base,
		cand(1, 2, crawler.Safari2, "p2", "bbbb2222cccc3333"),
		cand(1, 2, crawler.Chrome3, "p2", "dddd4444eeee5555"),
		cand(2, 3, crawler.Safari1, "p3", "ffff6666gggg7777"),
	)
	fingerprint := func(cands []*tokens.Candidate) string {
		cases, _ := identify(t, cands, Options{})
		out := ""
		for _, c := range cases {
			out += c.Group.Name + "/" + string(c.Bucket) + ";"
		}
		return out
	}
	want := fingerprint(base)
	// A few deterministic shuffles.
	for rot := 1; rot < len(base); rot += 2 {
		shuffled := append(append([]*tokens.Candidate{}, base[rot:]...), base[:rot]...)
		if got := fingerprint(shuffled); got != want {
			t.Fatalf("rotation %d changed result:\n got %q\nwant %q", rot, got, want)
		}
	}
}

// The batch and streaming identifiers emit the same uid counters: one
// reduce (reduceVerdicts) owns them, whether classification ran eagerly
// per walk or was deferred to Drain for the lifetime heuristic.
func TestStreamCountersMatchBatch(t *testing.T) {
	walks := [][]*tokens.Candidate{
		fullStaticGroup("p1"),
		{
			cand(1, 1, crawler.Safari1, "fpid", "samevalue11112222"),
			cand(1, 1, crawler.Safari2, "fpid", "samevalue11112222"),
			cand(1, 2, crawler.Safari1, "sid", "sessvalue11112222"),
			cand(1, 2, crawler.Safari1R, "sid", "sessvalue33334444"),
		},
		{
			cand(2, 1, crawler.Safari1, "t", "1646092800"),
			cand(2, 2, crawler.Safari1, "topic", "Dental_internal_whitepaper_topic"),
			cand(2, 3, crawler.Safari1, "ttl", "shortlivedvalue1"),
		},
	}
	var all []*tokens.Candidate
	for _, w := range walks {
		all = append(all, w...)
	}
	lifetimes := &LifetimeIndex{byValue: map[string]time.Duration{
		"shortlivedvalue1": 30 * 24 * time.Hour,
	}}
	uidCounters := func(tel *telemetry.Telemetry) map[string]int64 {
		out := map[string]int64{}
		for name, v := range tel.Registry().Snapshot().Counters {
			if strings.HasPrefix(name, "uid.") {
				out[name] = v
			}
		}
		return out
	}

	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"eager", Options{}},
		{"deferred", Options{LifetimeThreshold: 90 * 24 * time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batchTel := telemetry.New(nil, 0)
			batchOpt := tc.opt
			batchOpt.Telemetry = batchTel
			if batchOpt.LifetimeThreshold > 0 {
				batchOpt.LifetimeOf = lifetimes.Lifetime
			}
			if _, _, err := IdentifyCtx(context.Background(), all, batchOpt); err != nil {
				t.Fatal(err)
			}

			streamTel := telemetry.New(nil, 0)
			streamOpt := tc.opt
			streamOpt.Telemetry = streamTel
			ident := NewStreamIdentifier(len(walks), streamOpt)
			for i, w := range walks {
				ident.AddWalk(i, w)
			}
			if _, _, err := ident.Drain(context.Background(), lifetimes); err != nil {
				t.Fatal(err)
			}

			batch, stream := uidCounters(batchTel), uidCounters(streamTel)
			if batch["uid.candidates"] != int64(len(all)) || batch["uid.groups"] != 6 {
				t.Fatalf("batch counters = %v, want %d candidates in 6 groups", batch, len(all))
			}
			if tc.opt.LifetimeThreshold > 0 && batch["uid.verdict_session_by_ttl"] != 1 {
				t.Fatalf("deferred counters = %v, want one lifetime verdict", batch)
			}
			if !reflect.DeepEqual(batch, stream) {
				t.Fatalf("counters differ:\n batch  %v\n stream %v", batch, stream)
			}
		})
	}
}
