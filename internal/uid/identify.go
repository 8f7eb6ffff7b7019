// Package uid implements CrumbCruncher's UID identification stage (§3.7):
// deciding which cross-context tokens are true user identifiers. It
// encodes the paper's rules — discard tokens identical across different
// user profiles, discard tokens that differ between the Safari-1/Safari-1R
// repeat pair (session IDs), then apply programmatic filters and the
// lexicon "manual" review — and the prior-work baselines those rules
// improve on (two-crawler comparison, cookie-lifetime session heuristics,
// Ratcliff/Obershelp fuzzy value matching), for the ablation benchmarks.
package uid

import (
	"context"
	"sort"
	"time"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/parallel"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/textmatch"
	"crumbcruncher/internal/tokens"
)

// Bucket is a Table 1 crawler-combination category.
type Bucket string

const (
	// BucketPairPlus: the identical-profile pair plus at least one other
	// profile ("2 identical plus 1 or more different profiles").
	BucketPairPlus Bucket = "2 identical plus 1 or more different profiles"
	// BucketDifferentOnly: two or more different profiles, no identical
	// pair.
	BucketDifferentOnly Bucket = "2 or more different profiles only"
	// BucketPairOnly: only the identical-profile pair.
	BucketPairOnly Bucket = "2 identical profiles only"
	// BucketSingle: a single crawler.
	BucketSingle Bucket = "1 profile only"
)

// Buckets lists the Table 1 rows in presentation order.
var Buckets = []Bucket{BucketPairPlus, BucketDifferentOnly, BucketPairOnly, BucketSingle}

// Options configures identification. The zero value is CrumbCruncher's
// full method over all four crawlers.
type Options struct {
	// Crawlers restricts which crawlers' observations are used (the
	// two-crawler prior-work ablation). Empty means all four.
	Crawlers []string
	// DisableRepeatCrawler turns off session-ID elimination via
	// Safari-1R.
	DisableRepeatCrawler bool
	// LifetimeThreshold, when positive, discards tokens whose storing
	// cookie lived less than this (the 90-day/30-day prior-work session
	// heuristic). Requires LifetimeOf.
	LifetimeThreshold time.Duration
	// LifetimeOf reports the storing-cookie lifetime of a token value.
	// It is runtime wiring, not configuration, and is not serialized.
	LifetimeOf func(value string) (time.Duration, bool) `json:"-"`
	// SameSlack treats values within this Ratcliff/Obershelp slack as
	// "the same" across users (prior work used 0.33 or 0.45);
	// CrumbCruncher's method is exact equality (0).
	SameSlack float64
	// SkipManual disables the lexicon review stage.
	SkipManual bool
	// Parallelism bounds the worker pool classifying candidate groups
	// (0 or 1: sequential). It is runtime wiring, not configuration:
	// results are bit-identical for any value.
	Parallelism int `json:"-"`
	// Telemetry, when non-nil, receives verdict counters and
	// classification shard timings. Runtime wiring, not configuration;
	// observation only.
	Telemetry *telemetry.Telemetry `json:"-"`
}

func (o Options) crawlerSet() map[string]bool {
	set := map[string]bool{}
	if len(o.Crawlers) == 0 {
		for _, c := range crawler.AllCrawlers {
			set[c] = true
		}
		return set
	}
	for _, c := range o.Crawlers {
		set[c] = true
	}
	return set
}

// Group is a token observed under one name at one synchronized step,
// collected across crawlers.
type Group struct {
	Walk int
	Step int
	Name string
	// Observations maps crawler → that crawler's candidate observations.
	Observations map[string][]*tokens.Candidate
}

// valuesOf returns a crawler's distinct observed values.
func (g *Group) valuesOf(c string) []string {
	seen := map[string]bool{}
	var out []string
	for _, cand := range g.Observations[c] {
		if !seen[cand.Value] {
			seen[cand.Value] = true
			out = append(out, cand.Value)
		}
	}
	sort.Strings(out)
	return out
}

// Case is a confirmed UID smuggling instance.
type Case struct {
	Group  *Group
	Bucket Bucket
	// Values maps crawler → the UID value it observed (first of its
	// observations).
	Values map[string]string
	// Candidates holds every surviving observation (path context for the
	// analysis package).
	Candidates []*tokens.Candidate
}

// Stats accounts for every token's fate — the §3.7 numbers.
type Stats struct {
	Candidates        int
	Groups            int
	SameAcrossUsers   int // discarded: identical across different profiles
	SessionByRepeat   int // discarded: differs across the identical pair
	SessionByTTL      int // discarded by the lifetime baseline (if enabled)
	Programmatic      map[tokens.FilterReason]int
	AfterProgrammatic int // reaches the manual stage (the paper's 1,581)
	ManuallyRemoved   int // removed by the lexicon review (the paper's 577)
	Final             int
}

// GroupCandidates partitions candidates by (walk, step, name).
func GroupCandidates(cands []*tokens.Candidate, opt Options) []*Group {
	include := opt.crawlerSet()
	byKey := map[[2]int]map[string]*Group{}
	var order []*Group
	for _, c := range cands {
		if !include[c.Crawler] {
			continue
		}
		key := [2]int{c.Walk, c.Step}
		m := byKey[key]
		if m == nil {
			m = map[string]*Group{}
			byKey[key] = m
		}
		g := m[c.Name]
		if g == nil {
			g = &Group{Walk: c.Walk, Step: c.Step, Name: c.Name,
				Observations: map[string][]*tokens.Candidate{}}
			m[c.Name] = g
			order = append(order, g)
		}
		g.Observations[c.Crawler] = append(g.Observations[c.Crawler], c)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Walk != b.Walk {
			return a.Walk < b.Walk
		}
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		return a.Name < b.Name
	})
	return order
}

// same compares two values under the configured slack.
func (o Options) same(a, b string) bool {
	if o.SameSlack <= 0 {
		return a == b
	}
	return textmatch.SameWithin(a, b, o.SameSlack)
}

// verdictKind is the fate classifyGroup assigned to a group.
type verdictKind int8

const (
	verdictKeep verdictKind = iota
	verdictSameAcrossUsers
	verdictSessionByRepeat
	verdictSessionByTTL
	verdictProgrammatic
	verdictManual
)

// groupVerdict is one group's classification outcome. Groups are
// classified independently (the fan-out unit of the parallel pipeline)
// and reduced into Stats and the case list in group order.
type groupVerdict struct {
	kind   verdictKind
	reason tokens.FilterReason // set for verdictProgrammatic
	c      *Case               // set for verdictKeep
}

// Identify runs the full §3.7 procedure and returns the confirmed UID
// cases with bookkeeping statistics. Per-group work runs concurrently
// when opt.Parallelism > 1; the result is bit-identical regardless.
func Identify(cands []*tokens.Candidate, opt Options) ([]*Case, Stats) {
	cases, stats, _ := IdentifyCtx(context.Background(), cands, opt)
	return cases, stats
}

// IdentifyCtx is Identify bounded by ctx: cancellation stops the
// classification pool from taking new groups and returns ctx's error
// with unusable partial results.
func IdentifyCtx(ctx context.Context, cands []*tokens.Candidate, opt Options) ([]*Case, Stats, error) {
	include := opt.crawlerSet()
	stats := Stats{Programmatic: map[tokens.FilterReason]int{}}
	stats.Candidates = len(cands)
	groups := GroupCandidates(cands, opt)
	stats.Groups = len(groups)

	reg := opt.Telemetry.Registry()
	verdicts := make([]groupVerdict, len(groups))
	err := parallel.ForEachTimedCtx(ctx, len(groups), opt.Parallelism, func(i int) {
		verdicts[i] = classifyGroup(groups[i], opt, include)
	}, reg.Histogram("uid.classify_shard_us").Microseconds())
	if err != nil {
		return nil, stats, err
	}

	cases := reduceVerdicts(verdicts, &stats, reg)
	return cases, stats, nil
}

// reduceVerdicts performs the ordered reduce: statistics and confirmed
// cases accumulate in group order, exactly as a sequential loop would.
// Verdict counters live here rather than in classifyGroup so they
// increment in deterministic order too. Shared by the batch entry
// points and the streaming identifier's drain; both set
// stats.Candidates and stats.Groups before calling it.
func reduceVerdicts(verdicts []groupVerdict, stats *Stats, reg *telemetry.Registry) []*Case {
	reg.Counter("uid.candidates").Add(int64(stats.Candidates))
	reg.Counter("uid.groups").Add(int64(stats.Groups))
	var cases []*Case
	for _, v := range verdicts {
		switch v.kind {
		case verdictSameAcrossUsers:
			stats.SameAcrossUsers++
			reg.Counter("uid.verdict_same_across_users").Inc()
		case verdictSessionByRepeat:
			stats.SessionByRepeat++
			reg.Counter("uid.verdict_session_by_repeat").Inc()
		case verdictSessionByTTL:
			stats.SessionByTTL++
			reg.Counter("uid.verdict_session_by_ttl").Inc()
		case verdictProgrammatic:
			stats.Programmatic[v.reason]++
			reg.Counter("uid.verdict_programmatic").Inc()
		case verdictManual:
			stats.AfterProgrammatic++
			stats.ManuallyRemoved++
			reg.Counter("uid.verdict_manual").Inc()
		case verdictKeep:
			stats.AfterProgrammatic++
			cases = append(cases, v.c)
			reg.Counter("uid.verdict_confirmed").Inc()
		}
	}
	stats.Final = len(cases)
	return cases
}

// classifyGroup applies the §3.7 rules to one group. It only reads the
// group and shared read-only state (options, lifetime index), so calls
// are safe to run concurrently.
func classifyGroup(g *Group, opt Options, include map[string]bool) groupVerdict {
	// Rule 1: a value shared by two different profiles is not a UID
	// (§3.7.2 rule 1; also covers the static case of §3.7.1).
	if g.sharedAcrossProfiles(opt) {
		return groupVerdict{kind: verdictSameAcrossUsers}
	}
	// Rule 2: the identical pair observed different values — a
	// session ID (§3.7.1, §3.7.2 rule 2).
	if !opt.DisableRepeatCrawler && include[crawler.Safari1] && include[crawler.Safari1R] {
		v1 := g.valuesOf(crawler.Safari1)
		v1r := g.valuesOf(crawler.Safari1R)
		if len(v1) > 0 && len(v1r) > 0 && !anyCommon(v1, v1r, opt) {
			return groupVerdict{kind: verdictSessionByRepeat}
		}
	}
	// Prior-work lifetime heuristic (baseline only).
	if opt.LifetimeThreshold > 0 && opt.LifetimeOf != nil {
		if lt, ok := opt.LifetimeOf(g.anyValue()); ok && lt < opt.LifetimeThreshold {
			return groupVerdict{kind: verdictSessionByTTL}
		}
	}
	// Programmatic filters.
	if reason := tokens.ProgrammaticFilter(g.anyValue()); reason != tokens.KeepToken {
		return groupVerdict{kind: verdictProgrammatic, reason: reason}
	}
	// Lexicon review (the paper's manual stage).
	if !opt.SkipManual && tokens.ManualReview(g.anyValue()) {
		return groupVerdict{kind: verdictManual}
	}
	return groupVerdict{kind: verdictKeep, c: g.toCase(opt)}
}

// sharedAcrossProfiles reports whether any value is observed by two
// crawlers with different user profiles.
func (g *Group) sharedAcrossProfiles(opt Options) bool {
	crawlers := g.crawlers()
	for i, a := range crawlers {
		for _, b := range crawlers[i+1:] {
			if crawler.SameProfile(a, b) {
				continue
			}
			if anyCommon(g.valuesOf(a), g.valuesOf(b), opt) {
				return true
			}
		}
	}
	return false
}

func anyCommon(a, b []string, opt Options) bool {
	for _, x := range a {
		for _, y := range b {
			if opt.same(x, y) {
				return true
			}
		}
	}
	return false
}

func (g *Group) crawlers() []string {
	var out []string
	for _, c := range crawler.AllCrawlers {
		if len(g.Observations[c]) > 0 {
			out = append(out, c)
		}
	}
	return out
}

func (g *Group) anyValue() string {
	for _, c := range crawler.AllCrawlers {
		if obs := g.Observations[c]; len(obs) > 0 {
			return obs[0].Value
		}
	}
	return ""
}

// toCase builds the confirmed case with its Table 1 bucket.
func (g *Group) toCase(opt Options) *Case {
	c := &Case{Group: g, Values: map[string]string{}}
	for _, name := range g.crawlers() {
		c.Values[name] = g.valuesOf(name)[0]
		c.Candidates = append(c.Candidates, g.Observations[name]...)
	}
	c.Bucket = bucketOf(g, opt)
	return c
}

// bucketOf classifies the crawler combination (Table 1).
func bucketOf(g *Group, opt Options) Bucket {
	v1 := g.valuesOf(crawler.Safari1)
	v1r := g.valuesOf(crawler.Safari1R)
	pair := anyCommon(v1, v1r, opt)

	profiles := map[string]bool{}
	for _, name := range g.crawlers() {
		profiles[crawler.ProfileOf(name)] = true
	}
	switch {
	case pair && len(profiles) > 1:
		return BucketPairPlus
	case pair:
		return BucketPairOnly
	case len(profiles) > 1:
		return BucketDifferentOnly
	default:
		return BucketSingle
	}
}

// BucketCounts tallies cases per Table 1 row.
func BucketCounts(cases []*Case) map[Bucket]int {
	out := map[Bucket]int{}
	for _, c := range cases {
		out[c.Bucket]++
	}
	return out
}
