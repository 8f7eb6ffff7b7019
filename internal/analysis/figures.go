package analysis

import (
	"net/url"
	"sort"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/category"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/entity"
	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
)

// --- Figure 4: organisations ------------------------------------------------

// TopOrganizations attributes the originators and destinations of unique
// smuggling domain paths to organisations and returns the most frequent,
// counting each organisation once per unique domain path (§5.2).
func (a *Analysis) TopOrganizations(at *entity.Attributor, n int) (originators, destinations []stats.Entry) {
	origCount := stats.NewCounter()
	destCount := stats.NewCounter()
	seenOrig := map[string]bool{}
	seenDest := map[string]bool{}
	for _, agg := range a.smugglingAggs() {
		dk := agg.rep.DomainKey()
		if org := at.OrgOf(agg.rep.Originator().Domain); org != entity.Unattributed {
			if !seenOrig[dk+"|"+org] {
				seenOrig[dk+"|"+org] = true
				origCount.Inc(org)
			}
		}
		if org := at.OrgOf(agg.rep.Destination().Domain); org != entity.Unattributed {
			if !seenDest[dk+"|"+org] {
				seenDest[dk+"|"+org] = true
				destCount.Inc(org)
			}
		}
	}
	return origCount.Top(n), destCount.Top(n)
}

// --- Figure 5: categories ----------------------------------------------------

// CategoryBreakdown counts the unique registered domains participating in
// smuggling as originators and destinations per content category.
func (a *Analysis) CategoryBreakdown(tax *category.Taxonomy) (originators, destinations map[string]int) {
	var origs, dests []string
	for _, agg := range a.smugglingAggs() {
		origs = append(origs, agg.rep.Originator().Domain)
		dests = append(dests, agg.rep.Destination().Domain)
	}
	return tax.CountByCategory(origs), tax.CountByCategory(dests)
}

// --- Figure 6: third parties -------------------------------------------------

// ThirdPartyReceivers finds the registered domains of third-party web
// requests sent from destination pages that included a confirmed UID —
// whether deliberately or leaked inside a full-URL parameter (§5.2.2).
func (a *Analysis) ThirdPartyReceivers(n int) []stats.Entry {
	uidValues := map[string]bool{}
	for _, c := range a.cases {
		for _, v := range c.Values {
			uidValues[v] = true
		}
	}
	counter := stats.NewCounter()
	a.src.ForEachWalk(func(w *crawler.Walk) error {
		for _, s := range w.Steps {
			for _, rec := range s.Records {
				if rec.LandedURL == "" {
					continue
				}
				destDomain := regOf(rec.LandedURL)
				for _, r := range rec.Requests {
					if r.Kind != browser.KindBeacon {
						continue
					}
					// Sent from the destination page.
					if r.Referer != rec.LandedURL {
						continue
					}
					target := regOf(r.URL)
					if target == "" || target == destDomain {
						continue
					}
					if requestCarriesUID(r.URL, uidValues) {
						counter.Inc(target)
					}
				}
			}
		}
		return nil
	})
	return counter.Top(n)
}

func regOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	if rd := publicsuffix.RegisteredDomain(u.Hostname()); rd != "" {
		return rd
	}
	return u.Hostname()
}

// requestCarriesUID reports whether any confirmed UID value appears in
// the request URL (as a parameter value, or embedded in a leaked full
// URL).
func requestCarriesUID(raw string, uidValues map[string]bool) bool {
	u, err := url.Parse(raw)
	if err != nil {
		return false
	}
	for _, vs := range u.Query() {
		for _, v := range vs {
			if uidValues[v] {
				return true
			}
			// Leak inside an embedded URL: check its parameters too.
			for _, p := range tokens.Extract("", v) {
				if uidValues[p.Value] {
					return true
				}
			}
		}
	}
	return false
}

// --- Figure 7: redirectors per path -------------------------------------------

// RedirectorBucket is one bar group of Figure 7.
type RedirectorBucket struct {
	Redirectors int
	// NoDedicated / OneDedicated / TwoPlusDedicated split the unique
	// URL-path count by how many dedicated smugglers the path contains.
	NoDedicated      int
	OneDedicated     int
	TwoPlusDedicated int
}

// Total returns the bucket's path count.
func (b RedirectorBucket) Total() int {
	return b.NoDedicated + b.OneDedicated + b.TwoPlusDedicated
}

// RedirectorHistogram computes Figure 7 over unique smuggling URL paths.
func (a *Analysis) RedirectorHistogram() []RedirectorBucket {
	byCount := map[int]*RedirectorBucket{}
	maxN := 0
	for _, agg := range a.smugglingAggs() {
		reds := agg.rep.Redirectors()
		n := len(reds)
		if n > maxN {
			maxN = n
		}
		b := byCount[n]
		if b == nil {
			b = &RedirectorBucket{Redirectors: n}
			byCount[n] = b
		}
		dedicated := 0
		for _, r := range reds {
			if a.dedicated[r.Host] {
				dedicated++
			}
		}
		switch {
		case dedicated >= 2:
			b.TwoPlusDedicated++
		case dedicated == 1:
			b.OneDedicated++
		default:
			b.NoDedicated++
		}
	}
	out := make([]RedirectorBucket, maxN+1)
	for i := range out {
		out[i].Redirectors = i
		if b := byCount[i]; b != nil {
			out[i] = *b
		}
	}
	return out
}

// --- Figure 8: path portions ---------------------------------------------------

// Portion names the traversed segment of a navigation path.
type Portion string

// The Figure 8 portions.
const (
	PortionFull       Portion = "Originator to Redirector to Destination"
	PortionOriginDest Portion = "Originator to Destination"
	PortionRedirDest  Portion = "Redirector to Destination"
	PortionOriginRed  Portion = "Originator to Redirector"
	PortionRedirRedir Portion = "Redirector to Redirector"
)

// Portions lists the Figure 8 rows in presentation order.
var Portions = []Portion{PortionFull, PortionOriginDest, PortionRedirDest, PortionOriginRed, PortionRedirRedir}

// PortionCount splits a portion's UID count by dedicated-smuggler
// involvement.
type PortionCount struct {
	WithDedicated    int
	WithoutDedicated int
}

// Total returns the row total.
func (p PortionCount) Total() int { return p.WithDedicated + p.WithoutDedicated }

// PathPortions computes Figure 8: for every confirmed UID, which portion
// of its navigation path it traversed, split by whether the path contains
// a dedicated smuggler.
func (a *Analysis) PathPortions() map[Portion]PortionCount {
	out := map[Portion]PortionCount{}
	for _, c := range a.cases {
		cand := c.Candidates[0]
		portion := classifyPortion(cand)
		hasDedicated := false
		for _, r := range cand.Path.Redirectors() {
			if a.dedicated[r.Host] {
				hasDedicated = true
				break
			}
		}
		pc := out[portion]
		if hasDedicated {
			pc.WithDedicated++
		} else {
			pc.WithoutDedicated++
		}
		out[portion] = pc
	}
	return out
}

// classifyPortion maps a candidate's first/last appearance to a Figure 8
// portion. A token first seen on the node after the originator was
// decorated onto the originator's link, so it "begins at the originator".
func classifyPortion(c *tokens.Candidate) Portion {
	last := len(c.Path.Nodes) - 1
	startsAtOrigin := c.FirstIdx <= 1
	endsAtDest := c.LastIdx == last
	noRedirectors := len(c.Path.Nodes) == 2
	switch {
	case noRedirectors:
		return PortionOriginDest
	case startsAtOrigin && endsAtDest:
		return PortionFull
	case startsAtOrigin:
		return PortionOriginRed
	case endsAtDest:
		return PortionRedirDest
	default:
		return PortionRedirRedir
	}
}

// --- §3.5: fingerprinting experiment -------------------------------------------

// FPExperiment is the fingerprinting comparison of §3.5.
type FPExperiment struct {
	// OnFingerprinters is the share of smuggling cases originating on
	// fingerprinting sites (paper: 13%).
	OnFingerprinters float64
	// FPMulti / NonFPMulti are the multi-crawler proportions in each
	// group (paper: 44% vs 52%).
	FPMulti    stats.Proportion
	NonFPMulti stats.Proportion
	// Z is the two-proportion Z test over the groups.
	Z stats.ZTestResult
}

// FingerprintingExperiment reproduces §3.5: split cases by whether the
// originator hosts fingerprinting code, compare the single- vs
// multi-crawler proportions, and test the difference.
func (a *Analysis) FingerprintingExperiment(fingerprinters []string) (FPExperiment, error) {
	fp := map[string]bool{}
	for _, d := range fingerprinters {
		fp[d] = true
	}
	var exp FPExperiment
	total := 0
	for _, c := range a.cases {
		orig := c.Candidates[0].Path.Originator().Domain
		multi := c.Bucket != uid.BucketSingle
		total++
		if fp[orig] {
			exp.FPMulti.Trials++
			if multi {
				exp.FPMulti.Successes++
			}
		} else {
			exp.NonFPMulti.Trials++
			if multi {
				exp.NonFPMulti.Successes++
			}
		}
	}
	if total > 0 {
		exp.OnFingerprinters = float64(exp.FPMulti.Trials) / float64(total)
	}
	z, err := stats.TwoProportionZTest(exp.NonFPMulti, exp.FPMulti)
	if err != nil {
		return exp, err
	}
	exp.Z = z
	return exp, nil
}

// --- §3.3: failure rates ----------------------------------------------------------

// FailureRates are the crawl failure fractions of §3.3. NoCommonElement
// and Divergent are fractions of crawl steps; ConnectError follows the
// paper's accounting — the fraction of distinct sites attempted whose
// connection failed ("3.3% of the sites it attempted to visit").
type FailureRates struct {
	Steps           int
	SitesAttempted  int
	NoCommonElement float64 // paper: 7.6%
	Divergent       float64 // paper: 1.8%
	ConnectError    float64 // paper: 3.3%
}

// FailureRates computes the §3.3 failure fractions.
func (a *Analysis) FailureRates() FailureRates {
	t := a.Tally()
	total, counts := t.steps()
	if total == 0 {
		return FailureRates{}
	}
	f := FailureRates{Steps: total}
	f.NoCommonElement = float64(counts[crawler.OutcomeNoCommonElement]) / float64(total)
	f.Divergent = float64(counts[crawler.OutcomeDivergent]) / float64(total)

	// Distinct sites attempted vs. failed. A site either always fails or
	// never does (per-domain faults), so the two sets cannot overlap.
	f.SitesAttempted = len(t.sitesAttempted)
	if f.SitesAttempted > 0 {
		f.ConnectError = float64(len(t.sitesFailed)) / float64(f.SitesAttempted)
	}
	return f
}

func isConnectFail(fail string) bool {
	return len(fail) >= 8 && fail[:8] == "connect:"
}

// ResilienceStats splits the crawl's observed connection failures into
// transient-recovered and permanently-unreachable populations, from the
// per-request records (every retry attempt is recorded). The paper's
// 3.3% counts all of them as losses; with retries enabled the recovered
// share is measurement the crawl kept instead.
type ResilienceStats struct {
	// RetriedRequests is the number of recorded requests beyond a first
	// attempt.
	RetriedRequests int
	// SitesRecovered is the number of distinct registered domains that
	// failed at least one request but later answered successfully.
	SitesRecovered int
	// SitesUnreachable is the number of distinct registered domains
	// whose requests never succeeded.
	SitesUnreachable int
	// RecoveredRate and UnreachableRate are the two populations as
	// fractions of all distinct domains the crawl sent requests to.
	RecoveredRate   float64
	UnreachableRate float64
}

// requestFailed classifies a recorded request as failed: a transport
// error, or a degraded HTTP answer (5xx / 429).
func requestFailed(errStr string, status int) bool {
	return errStr != "" || status >= 500 || status == 429
}

// Resilience computes the transient-recovered vs permanently-unreachable
// split across every crawler's request log.
func (a *Analysis) Resilience() ResilienceStats {
	t := a.Tally()
	rs := ResilienceStats{RetriedRequests: t.retried}
	attempted := len(t.domainsOK)
	for d := range t.domainsFailed {
		if _, ok := t.domainsOK[d]; ok {
			rs.SitesRecovered++
		} else {
			rs.SitesUnreachable++
			attempted++
		}
	}
	if attempted > 0 {
		rs.RecoveredRate = float64(rs.SitesRecovered) / float64(attempted)
		rs.UnreachableRate = float64(rs.SitesUnreachable) / float64(attempted)
	}
	return rs
}

// --- §5.1 / §7.1: blocklist coverage -------------------------------------------------

// SmugglingURLs returns every unique URL participating in smuggling paths
// (originators, redirectors and destinations), sorted.
func (a *Analysis) SmugglingURLs() []string {
	set := map[string]bool{}
	for _, agg := range a.smugglingAggs() {
		for _, n := range agg.rep.Nodes {
			set[n.URL] = true
		}
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// SmugglerParamNames returns the query-parameter names confirmed to carry
// UIDs — the blocklist contribution of §7.2.
func (a *Analysis) SmugglerParamNames() []string {
	set := map[string]bool{}
	for _, c := range a.cases {
		set[c.Group.Name] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
