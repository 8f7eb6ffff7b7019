package web

import (
	"net/url"
	"strings"
	"testing"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/storage"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	cfg := SmallConfig()
	cfg.ConnectFailRate = 0 // separate test covers faults
	return BuildWorld(cfg)
}

func testBrowser(w *World, profile, client string) *browser.Browser {
	return browser.New(browser.Config{
		Seed:      w.Config().Seed,
		ProfileID: profile,
		ClientID:  client,
		Machine:   "m1",
		UserAgent: browser.DefaultSafariUA,
		Policy:    storage.Partitioned,
		Network:   w.Network(),
	})
}

func TestBuildWorldDeterministic(t *testing.T) {
	w1 := BuildWorld(SmallConfig())
	w2 := BuildWorld(SmallConfig())
	s1, s2 := w1.Seeders(), w2.Seeders()
	if len(s1) != len(s2) || len(s1) == 0 {
		t.Fatalf("seeder lengths: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("seeder %d differs: %q vs %q", i, s1[i], s2[i])
		}
	}
	if len(w1.Trackers()) != len(w2.Trackers()) {
		t.Fatal("tracker counts differ")
	}
}

func TestWorldPopulation(t *testing.T) {
	w := testWorld(t)
	cfg := w.Config()
	if len(w.Sites()) != cfg.NumSites {
		t.Fatalf("sites = %d, want %d", len(w.Sites()), cfg.NumSites)
	}
	var pubs, rets int
	for _, s := range w.Sites() {
		if s.Category == "" {
			t.Fatalf("site %s has no category", s.Domain)
		}
		if s.Org == "" {
			t.Fatalf("site %s has no org", s.Domain)
		}
		switch s.Kind {
		case Publisher:
			pubs++
		case Retailer:
			rets++
		}
	}
	if pubs == 0 || rets == 0 {
		t.Fatalf("degenerate mix: pubs=%d rets=%d", pubs, rets)
	}
	// Sync orgs exist and have siblings.
	var synced int
	for _, s := range w.Sites() {
		if s.SyncTracker != nil {
			synced++
			if len(s.Siblings) == 0 {
				t.Fatalf("sync site %s has no siblings", s.Domain)
			}
		}
	}
	if synced < 4 {
		t.Fatalf("synced sites = %d, want >= 4", synced)
	}
}

func TestGroundTruthParams(t *testing.T) {
	w := testWorld(t)
	uidParams := w.Truth().UIDParams()
	if len(uidParams) < 10 {
		t.Fatalf("uid params = %d, want many", len(uidParams))
	}
	if w.Truth().ParamKindOf("sid") != ParamSession {
		t.Fatal("sid should be a session param")
	}
	if w.Truth().ParamKindOf("d") != ParamDest {
		t.Fatal("d should be a dest param")
	}
	if w.Truth().ParamKindOf("nonexistent") != ParamUnknown {
		t.Fatal("unknown params should be ParamUnknown")
	}
	if len(w.Truth().DedicatedHosts()) == 0 {
		t.Fatal("no dedicated smuggler hosts")
	}
}

func TestPublisherPageStructure(t *testing.T) {
	w := testWorld(t)
	b := testBrowser(w, "u1", "c1")
	var pub *Site
	for _, s := range w.Sites() {
		if s.Kind == Publisher && s.AdSlots > 0 && len(s.Decorators) > 0 {
			pub = s
			break
		}
	}
	if pub == nil {
		t.Skip("no suitable publisher in small world")
	}
	p, err := b.Navigate("http://"+pub.Domain+"/", "")
	if err != nil {
		t.Fatal(err)
	}
	cs := b.Clickables(p)
	if len(cs) < 5 {
		t.Fatalf("clickables = %d, want several", len(cs))
	}
	var haveIframe bool
	for _, c := range cs {
		if c.Kind == "iframe" {
			haveIframe = true
		}
	}
	if !haveIframe {
		t.Fatal("publisher page missing ad iframe")
	}
}

func TestAdClickChainLandsOnRetailer(t *testing.T) {
	w := testWorld(t)
	b := testBrowser(w, "u1", "c1")
	// Click ads across publishers: every ad click must land on a
	// retailer, and at least one must carry a UID parameter on its first
	// hop. (A given creative may belong to a non-smuggling network — the
	// syndication pool mixes them — so not every click smuggles.)
	clicks, withUID := 0, 0
	for _, s := range w.Sites() {
		if s.Kind != Publisher || s.AdSlots == 0 || len(s.AdNetworks) == 0 {
			continue
		}
		p, err := b.Navigate("http://"+s.Domain+"/", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range b.Clickables(p) {
			if c.Kind != "iframe" {
				continue
			}
			dest, err := b.Click(p, c.Index)
			if err != nil {
				continue
			}
			clicks++
			land := w.Site(dest.FinalHost())
			if land == nil || land.Kind != Retailer {
				t.Fatalf("ad click landed on %q (not a retailer)", dest.FinalHost())
			}
			first, err := url.Parse(dest.Chain[0].URL)
			if err != nil {
				t.Fatal(err)
			}
			for name := range first.Query() {
				if w.Truth().ParamKindOf(name) == ParamUID {
					withUID++
					break
				}
			}
		}
		if clicks >= 10 {
			break
		}
	}
	if clicks == 0 {
		t.Skip("no clickable ad found in small world")
	}
	if withUID == 0 {
		t.Fatalf("none of %d ad clicks carried a UID param", clicks)
	}
}

func TestDefaultAdIdenticalAcrossClients(t *testing.T) {
	cfg := SmallConfig()
	cfg.ConnectFailRate = 0
	cfg.PDefaultAd = 0.95 // force default creatives for this test
	w := BuildWorld(cfg)
	// Two different clients loading the same slot repeatedly should
	// mostly see the same (default) creative; compare href paths modulo
	// the uid params.
	var pub *Site
	for _, s := range w.Sites() {
		if s.Kind == Publisher && s.AdSlots > 0 && len(s.AdNetworks) > 0 {
			pub = s
			break
		}
	}
	if pub == nil {
		t.Skip("no publisher with ads")
	}
	same, total := 0, 0
	for i := 0; i < 10; i++ {
		b1 := testBrowser(w, "u1", "c1")
		b2 := testBrowser(w, "u2", "c2")
		p1, err1 := b1.Navigate("http://"+pub.Domain+"/", "")
		p2, err2 := b2.Navigate("http://"+pub.Domain+"/", "")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		u1, e1 := b1.ClickURL(p1, adIndex(b1, p1))
		u2, e2 := b2.ClickURL(p2, adIndex(b2, p2))
		if e1 != nil || e2 != nil {
			continue
		}
		total++
		if u1.Query().Get("aid") == u2.Query().Get("aid") {
			same++
		}
	}
	if total == 0 {
		t.Skip("no ad clicks possible")
	}
	if float64(same)/float64(total) < 0.5 {
		t.Fatalf("default ads should dominate: same=%d/%d", same, total)
	}
}

func adIndex(b *browser.Browser, p *browser.Page) int {
	for _, c := range b.Clickables(p) {
		if c.Kind == "iframe" {
			return c.Index
		}
	}
	return 0
}

func TestVolatilePagesExist(t *testing.T) {
	w := testWorld(t)
	b1 := testBrowser(w, "u1", "c1")
	b2 := testBrowser(w, "u2", "c2")
	volatileFound := false
	for _, s := range w.Sites()[:30] {
		p1, err1 := b1.Navigate("http://"+s.Domain+"/", "")
		p2, err2 := b2.Navigate("http://"+s.Domain+"/", "")
		if err1 != nil || err2 != nil {
			continue
		}
		// A volatile page has zero anchors with matching hrefs.
		h1 := anchorPathSet(b1, p1)
		h2 := anchorPathSet(b2, p2)
		common := 0
		for h := range h1 {
			if h2[h] {
				common++
			}
		}
		if common == 0 && len(h1) > 0 {
			volatileFound = true
			break
		}
	}
	if !volatileFound {
		t.Log("no fully-volatile page among first 30 sites (acceptable at small scale)")
	}
}

func anchorPathSet(b *browser.Browser, p *browser.Page) map[string]bool {
	out := map[string]bool{}
	for _, c := range b.Clickables(p) {
		if c.Kind == "a" {
			if u, err := url.Parse(c.Href); err == nil {
				out[u.Host+u.Path] = true
			}
		}
	}
	return out
}

func TestSSOFlowSmugglesAuthToken(t *testing.T) {
	w := testWorld(t)
	b := testBrowser(w, "u1", "c1")
	var sso *Site
	for _, s := range w.Sites() {
		if s.SSOHost != "" && s.HasAccount {
			sso = s
			break
		}
	}
	if sso == nil {
		t.Skip("no SSO org in small world")
	}
	ret := "http://" + sso.Domain + "/account"
	p, err := b.Navigate("http://"+sso.SSOHost+"/login?return="+url.QueryEscape(ret), "")
	if err != nil {
		// Breakage class 3 without token redirects home — still a
		// successful navigation; only transport errors are fatal.
		t.Fatal(err)
	}
	// The SSO hop injected atok into the return URL.
	if len(p.Chain) < 2 {
		t.Fatalf("chain = %+v", p.Chain)
	}
	loc := p.Chain[0].Location
	if !strings.Contains(loc, "atok=") {
		t.Fatalf("SSO did not inject atok: %s", loc)
	}
}

func TestAccountBreakageClasses(t *testing.T) {
	w := testWorld(t)
	classes := map[int]bool{}
	for _, s := range w.Sites() {
		if s.HasAccount {
			classes[s.BreakageClass] = true
		}
	}
	if len(classes) == 0 {
		t.Skip("no account pages in small world")
	}
	// At least the no-change class should exist (7/10 weight).
	if !classes[0] {
		t.Log("no class-0 account page (small sample)")
	}
}

func TestFaultRateApplied(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumSites = 300
	cfg.ConnectFailRate = 0.033
	w := BuildWorld(cfg)
	b := testBrowser(w, "u1", "c1")
	failed := 0
	for _, s := range w.Sites() {
		if _, err := b.Navigate("http://"+s.Domain+"/", ""); err != nil {
			failed++
		}
	}
	rate := float64(failed) / float64(len(w.Sites()))
	if rate < 0.005 || rate > 0.09 {
		t.Fatalf("connect failure rate = %.3f, want ~0.033", rate)
	}
}

func TestTrackerHostsExemptFromFaults(t *testing.T) {
	cfg := SmallConfig()
	cfg.ConnectFailRate = 0.5
	w := BuildWorld(cfg)
	for _, tr := range w.Trackers() {
		for _, d := range tr.OwnedDomains {
			if w.Network().Faults().Unreachable(d) {
				t.Fatalf("tracker domain %s not exempt", d)
			}
		}
	}
}

func TestSeedersOrderedByRank(t *testing.T) {
	w := testWorld(t)
	seeders := w.Seeders()
	if len(seeders) != len(w.Sites()) {
		t.Fatalf("seeders = %d", len(seeders))
	}
	if w.Site(seeders[0]).Rank != 1 {
		t.Fatal("first seeder should be rank 1")
	}
}

func TestOrganizationsAndCategories(t *testing.T) {
	w := testWorld(t)
	orgs := w.Organizations()
	cats := w.Categories()
	for _, s := range w.Sites() {
		if orgs[s.Domain] == "" {
			t.Fatalf("no org for %s", s.Domain)
		}
		if cats[s.Domain] == "" {
			t.Fatalf("no category for %s", s.Domain)
		}
	}
	// Tracker domains have orgs too.
	for _, tr := range w.Trackers() {
		if tr.Kind == OrgSync {
			continue
		}
		if orgs[tr.Domain] == "" {
			t.Fatalf("no org for tracker %s", tr.Domain)
		}
	}
}

func TestSessionCookieDiffersAcrossClients(t *testing.T) {
	w := testWorld(t)
	s := w.Sites()[0]
	b1 := testBrowser(w, "u1", "c1")
	b2 := testBrowser(w, "u1", "c1r") // same profile, different client
	if _, err := b1.Navigate("http://"+s.Domain+"/", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Navigate("http://"+s.Domain+"/", ""); err != nil {
		t.Fatal(err)
	}
	now := netsim.Epoch // both browsers' clocks start there
	c1, ok1 := b1.Store().Cookie(storage.Context{FrameHost: s.Domain, TopHost: s.Domain}, "PSESSID", now)
	c2, ok2 := b2.Store().Cookie(storage.Context{FrameHost: s.Domain, TopHost: s.Domain}, "PSESSID", now)
	if !ok1 || !ok2 {
		t.Fatal("session cookies missing")
	}
	if c1.Value == c2.Value {
		t.Fatal("session cookie identical across clients — repeat-crawler session detection would break")
	}
}

func TestShortUIDTTLTrackersExist(t *testing.T) {
	w := testWorld(t)
	short := 0
	for _, tr := range w.Trackers() {
		if tr.Kind == AffiliateNetwork && tr.TTLDays < 90 {
			short++
		}
	}
	if short == 0 {
		t.Fatal("no short-TTL trackers; §3.7.1's lifetime experiment needs them")
	}
}

func TestFingerprintersListed(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumSites = 200
	cfg.ConnectFailRate = 0
	w := BuildWorld(cfg)
	fps := w.Fingerprinters()
	if len(fps) == 0 {
		t.Fatal("no fingerprinting sites generated")
	}
	rate := float64(len(fps)) / float64(len(w.Sites()))
	if rate > 0.35 {
		t.Fatalf("fingerprinter rate = %.3f, too high", rate)
	}
}

func TestSafariOnlyTrackerChecksUA(t *testing.T) {
	cfg := SmallConfig()
	cfg.ConnectFailRate = 0
	cfg.PDefaultAd = 1 // deterministic creatives
	w := BuildWorld(cfg)
	var so *Tracker
	for _, tr := range w.Trackers() {
		if tr.SafariOnly {
			so = tr
			break
		}
	}
	if so == nil {
		t.Skip("no safari-only tracker in small world")
	}
	// Find a publisher whose slot's default campaign belongs to the
	// safari-only network.
	for _, s := range w.Sites() {
		if s.Kind != Publisher || s.AdSlots == 0 {
			continue
		}
		hasSO := false
		for _, n := range s.AdNetworks {
			if n == so {
				hasSO = true
			}
		}
		if !hasSO {
			continue
		}
		safari := testBrowser(w, "u1", "safari-client")
		chrome := browser.New(browser.Config{
			Seed: cfg.Seed, ProfileID: "u1", ClientID: "chrome-client",
			Machine: "m1", UserAgent: browser.DefaultChromeUA,
			Policy: storage.Blocked, Network: w.Network(),
		})
		ps, err1 := safari.Navigate("http://"+s.Domain+"/", "")
		pc, err2 := chrome.Navigate("http://"+s.Domain+"/", "")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		us, es := safari.ClickURL(ps, adIndex(safari, ps))
		uc, ec := chrome.ClickURL(pc, adIndex(chrome, pc))
		if es != nil || ec != nil {
			continue
		}
		// Same default creative: if it belongs to the safari-only
		// network, the Safari click carries its param, the Chrome click
		// does not.
		if us.Query().Get(so.Param) != "" {
			if uc.Query().Get(so.Param) != "" {
				t.Fatalf("safari-only tracker smuggled on Chrome: %s", uc)
			}
			return // observed the differential behaviour
		}
	}
	t.Skip("no slot defaulting to the safari-only network in small world")
}
