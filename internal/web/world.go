package web

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/stats"
)

// TrackerKind classifies a tracker organisation.
type TrackerKind int

const (
	// AdNetwork serves display ads in iframes and routes clicks through
	// its redirectors (the DoubleClick-alikes; dedicated smugglers).
	AdNetwork TrackerKind = iota
	// AffiliateNetwork decorates text links on publisher pages and
	// routes them through its click hosts (the AWIN-alikes).
	AffiliateNetwork
	// BounceTracker redirects without transferring UIDs (Koop et al.'s
	// subject).
	BounceTracker
	// Analytics receives beacons only — the Figure 6 third parties that
	// get UIDs leaked to them.
	Analytics
	// OrgSync is a pseudo-tracker: a multi-site organisation syncing its
	// own UID across its domains (the Sports-Reference pattern).
	OrgSync
)

// String names the kind.
func (k TrackerKind) String() string {
	switch k {
	case AdNetwork:
		return "ad-network"
	case AffiliateNetwork:
		return "affiliate-network"
	case BounceTracker:
		return "bounce-tracker"
	case Analytics:
		return "analytics"
	case OrgSync:
		return "org-sync"
	default:
		return "unknown"
	}
}

// Tracker is one tracker organisation and its infrastructure.
type Tracker struct {
	Name string
	Org  string
	Kind TrackerKind
	// Domain is the primary registered domain.
	Domain string
	// OwnedDomains lists every registered domain the organisation owns
	// (Domain first).
	OwnedDomains []string
	// ScriptHost serves tracker scripts and collect endpoints.
	ScriptHost string
	// ServeHost serves iframe ad slots (ad networks).
	ServeHost string
	// ClickHosts are the redirector FQDNs (dedicated smugglers for
	// smuggling trackers).
	ClickHosts []string
	// Param is the UID query-parameter name this tracker smuggles under.
	Param string
	// MidParam is the parameter name used when a redirector injects its
	// own UID mid-chain.
	MidParam string
	// CookieName is the first-party cookie the tracker's script uses.
	CookieName string
	// TTLDays is the UID cookie lifetime.
	TTLDays int
	// Weight is relative market share.
	Weight float64
	// Campaigns are the ad network's campaigns.
	Campaigns []*Campaign
	// DestRetailers are the retailers an affiliate network's links point
	// to (these destinations carry its collector script).
	DestRetailers []string
	// Smuggles marks trackers whose navigation URLs carry UIDs. Ad
	// networks with Smuggles=false serve untracked ads: their redirects
	// are bounce tracking, not UID smuggling.
	Smuggles bool
	// UIDFormat selects the UID value shape: "" for opaque hex, "ga" for
	// Google-Analytics-style structured IDs ("GA1.2.<random>.<epoch>").
	// Structured IDs share most of their characters across users, which
	// is exactly what makes prior work's Ratcliff/Obershelp fuzzy
	// matching discard them as "the same" (§8.1).
	UIDFormat string
	// SafariOnly trackers sniff the User-Agent and smuggle only on
	// Safari (§3.4's hypothesis about partitioned-storage evasion).
	SafariOnly bool
	// RefererSmuggler trackers decorate the Referer header instead of
	// the destination URL (§6 limitation).
	RefererSmuggler bool
}

// Campaign is one ad campaign: a destination retailer reached through a
// redirect chain.
type Campaign struct {
	ID    string
	Owner *Tracker
	Dest  string   // retailer registered domain
	Chain []string // redirector FQDNs, possibly empty
	Ads   int      // number of creatives
	// Extra are the campaign's own benign parameters (topics, creative
	// names) that ride its click URLs — the natural-language token
	// classes the paper's manual review removes.
	Extra map[string]string
}

// Site is one content site.
type Site struct {
	Domain   string
	Rank     int // 1 = most popular
	Kind     SiteKind
	Category string
	Org      string
	// Fingerprinting marks sites that host browser-fingerprinting code
	// (membership in the Iqbal-style list of §3.5).
	Fingerprinting bool

	// Decorators are affiliate trackers whose scripts run on this site's
	// pages. fpDecorator marks which of them derive UIDs from the
	// machine fingerprint here.
	Decorators  []*Tracker
	fpDecorator map[string]bool
	// Analytics are beacon third parties on this site.
	Analytics []*Tracker
	// AdNetworks provide this site's iframe slots.
	AdNetworks []*Tracker
	// Partners are other sites this one links to.
	Partners []string
	// Siblings are same-organisation sites (org-sync link targets).
	Siblings []string
	// SyncTracker is the organisation's own cross-domain syncer, if any.
	SyncTracker *Tracker
	// ShortenerHost is the site's own outbound redirector (t.co
	// pattern), empty if none.
	ShortenerHost string
	// SSOHost is the organisation's sign-in redirector, empty if none.
	SSOHost string
	// HasAccount marks sites with a token-gated /account page.
	HasAccount bool
	// BreakageClass is how /account degrades without its token:
	// 0 = no change, 1 = minor layout shift, 2 = missing autofill,
	// 3 = redirect to homepage (§6's breakage experiment).
	BreakageClass int

	// AdSlots is the number of iframe slots per page.
	AdSlots int
	// ExtLinks is the number of static external links per page.
	ExtLinks int
	// Collectors are the trackers whose destination-side scripts run on
	// this site, harvesting their own smuggled parameters into
	// first-party cookies with the tracker's own cookie lifetime.
	Collectors []*Tracker

	// ssoCands are the Partners with an SSO host, resolved from the plan
	// on the site's first page build (not at derivation, which would
	// move the work into world build) and shared by every world forked
	// from the plan.
	ssoOnce  sync.Once
	ssoCands []ssoRef
}

// World is a built synthetic web: an immutable generation plan plus the
// per-run mutable substrate (network, visit counters). In eager mode
// (the default) every site is materialised and registered up front; with
// Config.Lazy sites derive and register on first visit through the
// network's resolver, so an unvisited world holds only its plan.
type World struct {
	cfg   Config
	net   *netsim.Network
	truth *Truth
	psl   *publicsuffix.List
	split *stats.Splitter
	gen   *worldGen
	cache *siteCache

	trackers   []*Tracker
	adNetworks []*Tracker
	affiliates []*Tracker
	bounces    []*Tracker
	analytics  []*Tracker

	// allCampaigns is the cross-network syndication pool rotated ads are
	// drawn from; campaignsByDest indexes it by destination for
	// same-destination rotation.
	allCampaigns    []*Campaign
	campaignsByDest map[string][]*Campaign

	visitMu sync.Mutex
	visits  map[string]int
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Network returns the virtual network serving this world.
func (w *World) Network() *netsim.Network { return w.net }

// Truth returns the ground-truth registry.
func (w *World) Truth() *Truth { return w.truth }

// Sites returns all content sites in rank order. In lazy mode this
// materialises the whole world — evaluation-only; the crawl path never
// calls it.
func (w *World) Sites() []*Site {
	out := make([]*Site, w.cfg.NumSites)
	for i := range out {
		out[i] = w.cache.site(w.gen, i)
	}
	return out
}

// Trackers returns all tracker organisations.
func (w *World) Trackers() []*Tracker { return w.trackers }

// Site returns the site owning the registered domain of host, or nil.
// Site domains carry their index, so resolution decodes and validates
// instead of consulting a world-sized map.
func (w *World) Site(host string) *Site {
	i, ok := w.gen.siteIndexOf(w.regDomain(host))
	if !ok {
		return nil
	}
	return w.cache.site(w.gen, i)
}

// Seeders returns the seeder domain list (most popular first) — the
// world's Tranco equivalent. Site index order IS rank order.
func (w *World) Seeders() []string { return w.SeedersN(w.cfg.NumSites) }

// SeedersN returns the n most popular seeder domains. A crawl of k walks
// only ever consults the first min(k, NumSites) seeders, so callers at
// scale avoid materialising a million-entry list.
func (w *World) SeedersN(n int) []string {
	if n > w.cfg.NumSites {
		n = w.cfg.NumSites
	}
	if n < 0 {
		n = 0
	}
	out := make([]string, n)
	for i := range out {
		out[i] = w.gen.domainAt(i)
	}
	return out
}

// NumSeeders returns the size of the full seeder list.
func (w *World) NumSeeders() int { return w.cfg.NumSites }

// Organizations returns the complete domain → organisation map.
func (w *World) Organizations() map[string]string {
	out := make(map[string]string, w.cfg.NumSites+len(w.gen.trackerOrgOf))
	for d, o := range w.gen.trackerOrgOf {
		out[d] = o
	}
	for i := 0; i < w.cfg.NumSites; i++ {
		out[w.gen.domainAt(i)] = w.gen.orgAt(i)
	}
	return out
}

// Categories returns the complete domain → category map.
func (w *World) Categories() map[string]string {
	out := make(map[string]string, w.cfg.NumSites)
	for i := 0; i < w.cfg.NumSites; i++ {
		out[w.gen.domainAt(i)] = w.gen.categoryAt(i)
	}
	return out
}

// Fingerprinters returns the domains of sites hosting fingerprinting
// code, in domain order.
func (w *World) Fingerprinters() []string {
	var out []string
	for i := 0; i < w.cfg.NumSites; i++ {
		if w.gen.fingerprintingAt(i) {
			out = append(out, w.gen.domainAt(i))
		}
	}
	sort.Strings(out)
	return out
}

func (w *World) regDomain(host string) string {
	if rd := w.psl.RegisteredDomain(host); rd != "" {
		return rd
	}
	return host
}

// visit increments and returns a deterministic per-key counter. Keys embed
// the client identity, so each crawler's sequence is reproducible
// regardless of goroutine scheduling.
func (w *World) visit(key string) int {
	w.visitMu.Lock()
	defer w.visitMu.Unlock()
	w.visits[key]++
	return w.visits[key]
}

// BuildWorld constructs the synthetic web on a fresh network. It is now a
// thin wrapper over the demand-driven plan: eager mode materialises and
// registers every site immediately, lazy mode (Config.Lazy) installs a
// resolver and leaves sites to derive on first visit.
func BuildWorld(cfg Config) *World {
	if cfg.NumSites <= 0 {
		cfg = DefaultConfig()
	}
	gen := newWorldGen(cfg)
	return newWorldFrom(cfg, gen, newSiteCache())
}

// newWorldFrom assembles a world (or fork) around a shared plan and site
// cache, wiring the per-run substrate: network, handlers, faults,
// visit counters.
func newWorldFrom(cfg Config, gen *worldGen, cache *siteCache) *World {
	w := &World{
		cfg:             cfg,
		net:             netsim.New(),
		truth:           gen.truth,
		psl:             publicsuffix.Default(),
		split:           stats.NewSplitter(cfg.Seed),
		gen:             gen,
		cache:           cache,
		trackers:        gen.trackers,
		adNetworks:      gen.adNetworks,
		affiliates:      gen.affiliates,
		bounces:         gen.bounces,
		analytics:       gen.analytics,
		allCampaigns:    gen.allCampaigns,
		campaignsByDest: gen.campaignsByDest,
		visits:          make(map[string]int),
	}
	w.registerTrackerHandlers()
	if cfg.Lazy {
		w.net.SetResolver(w.resolveHost)
	} else {
		for i := 0; i < cfg.NumSites; i++ {
			w.registerSiteHandlers(cache.site(gen, i))
		}
	}
	w.installFaults()
	return w
}

// Fork returns a run-private view of the world. The expensive seeded
// generation — the plan, materialised sites, the ground-truth registry —
// is shared with the receiver, all of it immutable (or internally
// locked). The per-run mutable substrate is rebuilt fresh: a new virtual
// network with its own fault injector and counters, and zeroed visit
// counters. Lazily materialised sites accumulate in the shared cache, so
// concurrent forks of a lazy world pay each site's derivation once.
//
// A template world that is never crawled directly can therefore serve
// any number of concurrent runs, each fork producing results
// byte-identical to a world built from scratch with the same Config
// (the serve layer's world cache relies on exactly this). Fork is safe
// to call concurrently on the same receiver.
func (w *World) Fork() *World {
	return newWorldFrom(w.cfg, w.gen, w.cache)
}

// resolveHost is the lazy network resolver: on the first request to an
// unknown host, materialise the owning site and register its handlers.
// Only real site domains decode, so garbage hosts still fail with
// ErrUnknownHost exactly as in eager mode.
func (w *World) resolveHost(host string) {
	if s := w.Site(host); s != nil {
		w.registerSiteHandlers(s)
	}
}

// shortTTLs are the sub-90-day cookie lifetimes some trackers use — the
// UIDs prior work's lifetime heuristics would have thrown away (§3.7.1:
// 16% of UIDs lived under 90 days, 9% under a month).
var shortTTLs = []int{21, 25, 45, 60, 75}

// shortTTLFor assigns lifetimes: a ShortUIDTTLFraction-sized window of
// mid-market trackers (starting below the very biggest, which keep
// year-long cookies) uses short-lived UID cookies.
func shortTTLFor(i, n int, frac float64) int {
	lo := 6
	if lo >= n {
		lo = n / 2
	}
	hi := lo + int(frac*float64(n)+0.5)
	if i >= lo && i < hi {
		return shortTTLs[(i-lo)%len(shortTTLs)]
	}
	return 390
}

func tldOf(domain string) string {
	for i := len(domain) - 1; i >= 0; i-- {
		if domain[i] == '.' {
			return domain[i:]
		}
	}
	return ""
}

// categoryWeights defines the IAB-style taxonomy per site kind; the
// weights shape Figure 5's category distribution (news and sports heavy on
// the originator side, shopping and technology on the destination side).
var categoryWeights = map[SiteKind][]stats.Entry{
	Publisher: {
		{Key: "News/Weather/Information", Count: 22},
		{Key: "Sports", Count: 12},
		{Key: "Technology & Computing", Count: 12},
		{Key: "Arts & Entertainment", Count: 9},
		{Key: "Hobbies & Interests", Count: 8},
		{Key: "Health & Fitness", Count: 6},
		{Key: "Style & Fashion", Count: 5},
		{Key: "Automotive", Count: 4},
		{Key: "Science", Count: 3},
		{Key: "Travel", Count: 3},
		{Key: "Food & Drink", Count: 2},
		{Key: "Streaming Media", Count: 2},
		{Key: "Adult Content", Count: 2},
		{Key: "Religion & Spirituality", Count: 1},
	},
	Retailer: {
		{Key: "Shopping", Count: 18},
		{Key: "Technology & Computing", Count: 12},
		{Key: "Business", Count: 10},
		{Key: "Style & Fashion", Count: 7},
		{Key: "Home & Garden", Count: 6},
		{Key: "Personal Finance", Count: 5},
		{Key: "Education", Count: 4},
		{Key: "Automotive", Count: 3},
		{Key: "Food & Drink", Count: 2},
		{Key: "Dating/Personals", Count: 1},
	},
	Portal: {
		{Key: "Business", Count: 10},
		{Key: "Education", Count: 8},
		{Key: "Social Networking", Count: 6},
		{Key: "Law Government & Politics", Count: 5},
		{Key: "Careers", Count: 3},
		{Key: "Family & Parenting", Count: 2},
		{Key: "Under Construction", Count: 1},
		{Key: "Content Server", Count: 1},
	},
}

func pickCategory(rng *stats.RNG, kind SiteKind) string {
	entries := categoryWeights[kind]
	weights := make([]float64, len(entries))
	for i, e := range entries {
		weights[i] = float64(e.Count)
	}
	return entries[rng.WeightedIndex(weights)].Key
}

// breakageClassFor draws the /account degradation class with the 7/1/1/1
// weighting that reproduces the paper's 10-page experiment.
func breakageClassFor(rng *stats.RNG) int {
	return rng.WeightedIndex([]float64{7, 1, 1, 1})
}

// campaignExtras coins a campaign's benign parameters: rare names (each
// campaign its own), natural-language values. When ads rotate, these land
// on a single crawler and reach the pipeline's manual-review stage, where
// the lexicon removes them — the paper's §3.7.2 false-positive classes.
func campaignExtras(rng *stats.RNG, truth *Truth) map[string]string {
	out := map[string]string{}
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		name := concatWords(rng, 2)
		var value string
		switch rng.Intn(4) {
		case 0:
			value = slugFrom(rng, 3+rng.Intn(2))
		case 1:
			value = concatWords(rng, 2)
		case 2:
			value = fmt.Sprintf("%d.%04d,-%d.%04d", rng.Intn(80), rng.Intn(9999), rng.Intn(170), rng.Intn(9999))
		default:
			value = slugFrom(rng, 2) + "_topic"
		}
		truth.registerParam(name, ParamBenign)
		out[name] = value
	}
	return out
}

// orgFromDomain derives a single-site organisation name from its domain.
func orgFromDomain(domain string) string {
	name := domain
	if t := tldOf(domain); t != "" {
		name = domain[:len(domain)-len(t)]
	}
	return titleCase(name)
}

// installFaults configures connection failures for content sites,
// exempting tracker infrastructure so redirect chains don't break mid-hop
// (the paper's connect failures happen at step 1 of a walk, visiting the
// site itself) and the most popular sites — hyper-popular domains are
// essentially never down, and without this exemption a single faulted hub
// would fail a disproportionate share of crawl steps.
func (w *World) installFaults() {
	f := netsim.NewFaultInjectorConfig(w.cfg.Seed, netsim.FaultConfig{
		ConnectFailRate:   w.cfg.ConnectFailRate,
		TransientRate:     w.cfg.TransientFailRate,
		TransientMaxFails: w.cfg.TransientMaxFails,
		DegradeRate:       w.cfg.HTTPDegradeRate,
		SpikeRate:         w.cfg.LatencySpikeRate,
		SpikeLatency:      time.Duration(w.cfg.SpikeLatencyMS) * time.Millisecond,
	})
	for _, t := range w.trackers {
		f.Exempt(t.OwnedDomains...)
	}
	top := 15
	if top > w.cfg.NumSites {
		top = w.cfg.NumSites
	}
	for i := 0; i < top; i++ {
		f.Exempt(w.gen.domainAt(i))
	}
	// SSO and shortener hosts share the registered domain of their site,
	// so they fail with it — acceptable: they ARE the site.
	w.net.SetFaults(f)
}
