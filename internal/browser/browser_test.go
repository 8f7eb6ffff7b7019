package browser

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/storage"
)

const testSeed = 424242

// fixture builds a miniature world exercising every mechanism the paper
// describes: an originator with a link-decorating tracker, a dedicated
// redirector that stores smuggled UIDs first-party, a destination with a
// collector script and a leaky analytics beacon, and an ad iframe.
func fixture(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.New()

	// Originator: one cross-domain link, one same-domain link, a tracker
	// that decorates cross-domain links, and an ad iframe.
	n.HandleFunc("news.com", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><body>
<script src="http://trk.com/t.js" data-cc="link-decorator" data-tracker="trk.com" data-param="tclid" data-cookie="_trk" data-ttl-days="390"></script>
<a id="out" href="http://smuggler.net/r?dest=http%3A%2F%2Fshop.com%2Fland">Deal!</a>
<a id="in" href="/local/page">More news</a>
<iframe src="http://ads.com/slot?pub=news.com" width="300" height="250"></iframe>
</body></html>`)
	})
	n.HandleFunc("smuggler.net", func(w http.ResponseWriter, r *http.Request) {
		// Dedicated smuggler: stores the incoming UID as its own
		// first-party cookie and bounces on, appending its own UID.
		uid := r.URL.Query().Get("tclid")
		if uid != "" {
			http.SetCookie(w, &http.Cookie{Name: "aggr", Value: uid, MaxAge: 86400 * 390})
		}
		dest := r.URL.Query().Get("dest")
		http.Redirect(w, r, dest+"?tclid="+uid, http.StatusFound)
	})
	n.HandleFunc("shop.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
<script src="http://trk.com/t.js" data-cc="collector" data-tracker="trk.com" data-params="tclid" data-cookie-prefix="_got_" data-beacon="http://trk.com/collect"></script>
<script data-cc="beacon" data-endpoint="http://analytics.com/g" data-include-url="1" data-uid-param="cid" data-tracker="analytics.com"></script>
<h1>Shop</h1>
</body></html>`)
	})
	n.HandleFunc("ads.com", func(w http.ResponseWriter, r *http.Request) {
		// Ad slot: the served ad links through the network's click domain.
		top := r.Header.Get("Referer")
		_ = top
		io.WriteString(w, `<html><body><a href="http://click.ads.com/c?ad=77&dest=http%3A%2F%2Fretailer.com%2F">Buy now</a></body></html>`)
	})
	n.HandleFunc("click.ads.com", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, r.URL.Query().Get("dest"), http.StatusFound)
	})
	n.HandleFunc("retailer.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body><h1>Retailer</h1></body></html>`)
	})
	n.HandleFunc("trk.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	n.HandleFunc("analytics.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	n.HandleFunc("local.news.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>internal</body></html>`)
	})
	return n
}

func newBrowser(t *testing.T, n *netsim.Network, profile string) *Browser {
	t.Helper()
	return New(Config{
		Seed:      testSeed,
		ProfileID: profile,
		ClientID:  profile + "-client",
		Machine:   "machine-1",
		UserAgent: DefaultSafariUA,
		Policy:    storage.Partitioned,
		Network:   n,
	})
}

func TestNavigateParsesPage(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	p, err := b.Navigate("http://news.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if p.FinalHost() != "news.com" {
		t.Fatalf("final host = %q", p.FinalHost())
	}
	if len(p.Chain) != 1 || p.Chain[0].Status != 200 {
		t.Fatalf("chain = %+v", p.Chain)
	}
	cs := b.Clickables(p)
	// 2 anchors + 1 iframe.
	if len(cs) != 3 {
		t.Fatalf("clickables = %d, want 3", len(cs))
	}
	if cs[0].Kind != "a" || cs[2].Kind != "iframe" {
		t.Fatalf("kinds: %+v", cs)
	}
}

func TestLinkDecorationCrossDomainOnly(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	p, err := b.Navigate("http://news.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	// Cross-domain anchor gets decorated.
	u, err := b.ClickURL(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	uid := u.Query().Get("tclid")
	if uid == "" {
		t.Fatalf("cross-domain link not decorated: %s", u)
	}
	want := ident.UID(testSeed, "trk.com", "u1", "news.com")
	if uid != want {
		t.Fatalf("decorated uid = %q, want %q", uid, want)
	}
	// Same-site anchor untouched.
	u2, err := b.ClickURL(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u2.Query().Get("tclid") != "" {
		t.Fatalf("same-site link decorated: %s", u2)
	}
	// The decorating tracker stored its UID as a first-party cookie on
	// the originator.
	if c, ok := b.Store().Cookie(storage.Context{FrameHost: "news.com", TopHost: "news.com"}, "_trk", b.clock.Now()); !ok || c.Value != want {
		t.Fatalf("originator first-party UID cookie missing/wrong: %+v ok=%v", c, ok)
	}
}

func TestDecoratedUIDDiffersAcrossProfilesAndSites(t *testing.T) {
	n := fixture(t)
	b1 := newBrowser(t, n, "u1")
	b2 := newBrowser(t, n, "u2")
	p1, _ := b1.Navigate("http://news.com/", "")
	p2, _ := b2.Navigate("http://news.com/", "")
	u1, _ := b1.ClickURL(p1, 0)
	u2, _ := b2.ClickURL(p2, 0)
	if u1.Query().Get("tclid") == u2.Query().Get("tclid") {
		t.Fatal("different profiles must receive different UIDs")
	}
	// Same profile on a repeat crawler (same profile ID) gets the same UID.
	b1r := newBrowser(t, n, "u1")
	p1r, _ := b1r.Navigate("http://news.com/", "")
	u1r, _ := b1r.ClickURL(p1r, 0)
	if u1.Query().Get("tclid") != u1r.Query().Get("tclid") {
		t.Fatal("same profile must receive the same UID on revisit")
	}
}

func TestFullSmugglingNavigationChain(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	p, err := b.Navigate("http://news.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	dest, err := b.Click(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dest.FinalHost() != "shop.com" {
		t.Fatalf("landed on %q", dest.FinalHost())
	}
	// Chain: smuggler.net 302 → shop.com 200.
	if len(dest.Chain) != 2 {
		t.Fatalf("chain = %+v", dest.Chain)
	}
	if !strings.Contains(dest.Chain[0].URL, "smuggler.net") || dest.Chain[0].Status != 302 {
		t.Fatalf("hop 0 = %+v", dest.Chain[0])
	}
	uid := ident.UID(testSeed, "trk.com", "u1", "news.com")
	// The redirector stored the smuggled UID as ITS first-party cookie.
	now := b.clock.Now()
	c, ok := b.Store().Cookie(storage.Context{FrameHost: "smuggler.net", TopHost: "smuggler.net"}, "aggr", now)
	if !ok || c.Value != uid {
		t.Fatalf("redirector first-party cookie: %+v ok=%v", c, ok)
	}
	// The destination's collector stored it too.
	c2, ok := b.Store().Cookie(storage.Context{FrameHost: "shop.com", TopHost: "shop.com"}, "_got_tclid", now)
	if !ok || c2.Value != uid {
		t.Fatalf("destination collector cookie: %+v ok=%v", c2, ok)
	}
}

func TestRequestLogCoversAllKinds(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	p, err := b.Navigate("http://news.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Click(p, 0); err != nil {
		t.Fatal(err)
	}
	var navs, frames, beacons int
	for _, r := range b.Requests() {
		switch r.Kind {
		case KindNavigation:
			navs++
		case KindSubframe:
			frames++
		case KindBeacon:
			beacons++
		}
	}
	// news.com + smuggler.net + shop.com navigations.
	if navs != 3 {
		t.Fatalf("navigations = %d, want 3", navs)
	}
	if frames != 1 {
		t.Fatalf("subframes = %d, want 1", frames)
	}
	// collector beacon + analytics beacon on shop.com.
	if beacons != 2 {
		t.Fatalf("beacons = %d, want 2", beacons)
	}
}

func TestBeaconLeaksFullURL(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	p, _ := b.Navigate("http://news.com/", "")
	if _, err := b.Click(p, 0); err != nil {
		t.Fatal(err)
	}
	var analyticsURL string
	for _, r := range b.Requests() {
		if r.Kind == KindBeacon && strings.Contains(r.URL, "analytics.com") {
			analyticsURL = r.URL
		}
	}
	if analyticsURL == "" {
		t.Fatal("analytics beacon not fired")
	}
	uid := ident.UID(testSeed, "trk.com", "u1", "news.com")
	if !strings.Contains(analyticsURL, uid) {
		t.Fatalf("beacon should leak the smuggled UID inside url=: %s", analyticsURL)
	}
}

func TestIframeClickThroughAdChain(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	p, err := b.Navigate("http://news.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	dest, err := b.Click(p, 2) // the iframe
	if err != nil {
		t.Fatal(err)
	}
	if dest.FinalHost() != "retailer.com" {
		t.Fatalf("ad click landed on %q", dest.FinalHost())
	}
	if len(dest.Chain) != 2 || !strings.Contains(dest.Chain[0].URL, "click.ads.com") {
		t.Fatalf("chain = %+v", dest.Chain)
	}
}

func TestClickErrorsOnEmptyIframe(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("a.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body><iframe src="http://empty.com/"></iframe></body></html>`)
	})
	n.HandleFunc("empty.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>no links here</body></html>`)
	})
	b := newBrowser(t, n, "u1")
	p, _ := b.Navigate("http://a.com/", "")
	_, err := b.Click(p, 0)
	var nt *ErrNoTarget
	if !errors.As(err, &nt) {
		t.Fatalf("err = %v, want ErrNoTarget", err)
	}
}

func TestNavigateConnectionFailure(t *testing.T) {
	n := fixture(t)
	n.SetFaults(netsim.NewFaultInjector(1, 1.0))
	b := newBrowser(t, n, "u1")
	_, err := b.Navigate("http://news.com/", "")
	var ne *NavError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want NavError", err)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, syscall.ECONNRESET) {
		// timeout flavour is also possible; accept it
		var nerr interface{ Timeout() bool }
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("unexpected failure flavour: %v", err)
		}
	}
	// The failed attempt is still in the request log.
	reqs := b.Requests()
	if len(reqs) != 1 || reqs[0].Err == "" {
		t.Fatalf("request log = %+v", reqs)
	}
}

func TestRedirectLoopBounded(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("loop.com", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "http://loop.com/again", http.StatusFound)
	})
	b := newBrowser(t, n, "u1")
	_, err := b.Navigate("http://loop.com/", "")
	if err == nil || !strings.Contains(err.Error(), "too many redirects") {
		t.Fatalf("err = %v", err)
	}
}

func TestUserAgentAndHeadersSent(t *testing.T) {
	n := netsim.New()
	var ua, profile, client, machine string
	n.HandleFunc("x.com", func(w http.ResponseWriter, r *http.Request) {
		ua = r.Header.Get("User-Agent")
		profile = r.Header.Get(HeaderProfile)
		client = r.Header.Get(HeaderClient)
		machine = r.Header.Get(HeaderMachine)
		fmt.Fprint(w, "<html></html>")
	})
	b := newBrowser(t, n, "u9")
	if _, err := b.Navigate("http://x.com/", ""); err != nil {
		t.Fatal(err)
	}
	if ua != DefaultSafariUA {
		t.Fatalf("UA = %q", ua)
	}
	if profile != "u9" || client != "u9-client" || machine != "machine-1" {
		t.Fatalf("identity headers: %q %q %q", profile, client, machine)
	}
}

func TestCookiesRoundTripThroughServer(t *testing.T) {
	n := netsim.New()
	var secondVisitCookie string
	visit := 0
	n.HandleFunc("c.com", func(w http.ResponseWriter, r *http.Request) {
		visit++
		if visit == 1 {
			http.SetCookie(w, &http.Cookie{Name: "sid", Value: "server-set", MaxAge: 3600})
		} else {
			if c, err := r.Cookie("sid"); err == nil {
				secondVisitCookie = c.Value
			}
		}
		fmt.Fprint(w, "<html></html>")
	})
	b := newBrowser(t, n, "u1")
	if _, err := b.Navigate("http://c.com/", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Navigate("http://c.com/again", ""); err != nil {
		t.Fatal(err)
	}
	if secondVisitCookie != "server-set" {
		t.Fatalf("cookie not returned on second visit: %q", secondVisitCookie)
	}
}

func TestThirdPartyFrameCookiesPartitioned(t *testing.T) {
	n := netsim.New()
	page := func(host string) {
		n.HandleFunc(host, func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `<html><body><iframe src="http://widget.com/w"></iframe></body></html>`)
		})
	}
	page("a.com")
	page("b.com")
	var cookieSeen []string
	n.HandleFunc("widget.com", func(w http.ResponseWriter, r *http.Request) {
		v := ""
		if c, err := r.Cookie("wid"); err == nil {
			v = c.Value
		}
		cookieSeen = append(cookieSeen, v)
		if v == "" {
			http.SetCookie(w, &http.Cookie{Name: "wid", Value: "W-" + r.Header.Get("Referer"), MaxAge: 86400})
		}
		fmt.Fprint(w, `<html><body><a href="http://a.com/">x</a></body></html>`)
	})
	b := newBrowser(t, n, "u1")
	if _, err := b.Navigate("http://a.com/", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Navigate("http://b.com/", ""); err != nil {
		t.Fatal(err)
	}
	// Partitioned: widget.com sees no cookie on b.com even though it set
	// one under a.com.
	if len(cookieSeen) != 2 || cookieSeen[0] != "" || cookieSeen[1] != "" {
		t.Fatalf("partitioning violated: %q", cookieSeen)
	}
	// And the a.com-partition cookie does exist.
	now := b.clock.Now()
	if _, ok := b.Store().Cookie(storage.Context{FrameHost: "widget.com", TopHost: "a.com"}, "wid", now); !ok {
		t.Fatal("partition bucket missing")
	}
}

func TestFingerprintUIDSameAcrossProfiles(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("fp.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
<script data-cc="link-decorator" data-tracker="fptrk.com" data-param="fpid" data-fingerprint="1"></script>
<a href="http://other.com/">out</a>
</body></html>`)
	})
	n.HandleFunc("other.com", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "<html></html>") })
	b1 := newBrowser(t, n, "u1")
	b2 := newBrowser(t, n, "u2")
	p1, _ := b1.Navigate("http://fp.com/", "")
	p2, _ := b2.Navigate("http://fp.com/", "")
	u1, _ := b1.ClickURL(p1, 0)
	u2, _ := b2.ClickURL(p2, 0)
	if u1.Query().Get("fpid") != u2.Query().Get("fpid") {
		t.Fatal("fingerprint UIDs must match across profiles on one machine")
	}
}

func TestLocalTokenDirective(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("l.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
<script data-cc="local-token" data-key="app_uid" data-kind="uid" data-tracker="l.com"></script>
<script data-cc="local-token" data-key="sess" data-kind="session"></script>
<script data-cc="local-token" data-key="theme" data-kind="benign" data-value="dark"></script>
</body></html>`)
	})
	b := newBrowser(t, n, "u1")
	if _, err := b.Navigate("http://l.com/", ""); err != nil {
		t.Fatal(err)
	}
	local := b.Store().FirstPartyLocal("l.com")
	if len(local) != 3 {
		t.Fatalf("local = %v", local)
	}
	if local["theme"] != "dark" {
		t.Fatalf("benign token = %q", local["theme"])
	}
	if local["app_uid"] != ident.UID(testSeed, "l.com", "u1", "l.com") {
		t.Fatal("uid token derivation mismatch")
	}
	// Session token changes on revisit.
	sess1 := local["sess"]
	if _, err := b.Navigate("http://l.com/", ""); err != nil {
		t.Fatal(err)
	}
	if sess2 := b.Store().FirstPartyLocal("l.com")["sess"]; sess2 == sess1 {
		t.Fatal("session token must differ across visits")
	}
}

func TestUIDSyncStorageModes(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("s.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
<script data-cc="uid-sync" data-tracker="t1.com" data-cookie="_t1" data-storage="both" data-beacon="http://t1.com/b"></script>
</body></html>`)
	})
	n.HandleFunc("t1.com", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
	b := newBrowser(t, n, "u1")
	if _, err := b.Navigate("http://s.com/", ""); err != nil {
		t.Fatal(err)
	}
	now := b.clock.Now()
	c, ok := b.Store().Cookie(storage.Context{FrameHost: "s.com", TopHost: "s.com"}, "_t1", now)
	if !ok {
		t.Fatal("uid-sync cookie missing")
	}
	if v, ok := b.Store().GetLocal(storage.Context{FrameHost: "s.com", TopHost: "s.com"}, "_t1"); !ok || v != c.Value {
		t.Fatal("uid-sync localStorage mirror missing")
	}
	var beacons int
	for _, r := range b.Requests() {
		if r.Kind == KindBeacon && strings.Contains(r.URL, "t1.com/b") && strings.Contains(r.URL, c.Value) {
			beacons++
		}
	}
	if beacons != 1 {
		t.Fatalf("uid beacons = %d", beacons)
	}
}

func TestCollectorPrefersStoredUID(t *testing.T) {
	// If a UID was smuggled in and stored, a later uid-sync keeps it
	// instead of minting a new one.
	n := netsim.New()
	n.HandleFunc("d.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
<script data-cc="collector" data-tracker="t.com" data-params="xid" data-cookie-prefix=""></script>
<script data-cc="uid-sync" data-tracker="t.com" data-cookie="xid"></script>
</body></html>`)
	})
	b := newBrowser(t, n, "u1")
	if _, err := b.Navigate("http://d.com/?xid=smuggledvalue123", ""); err != nil {
		t.Fatal(err)
	}
	now := b.clock.Now()
	c, ok := b.Store().Cookie(storage.Context{FrameHost: "d.com", TopHost: "d.com"}, "xid", now)
	if !ok || c.Value != "smuggledvalue123" {
		t.Fatalf("uid-sync overwrote the smuggled UID: %+v", c)
	}
}

func TestResetRequests(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	if _, err := b.Navigate("http://news.com/", ""); err != nil {
		t.Fatal(err)
	}
	if len(b.Requests()) == 0 {
		t.Fatal("expected requests")
	}
	b.ResetRequests()
	if len(b.Requests()) != 0 {
		t.Fatal("ResetRequests left records")
	}
}

func TestCrossDomainDetection(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	p, _ := b.Navigate("http://news.com/", "")
	cs := b.Clickables(p)
	if !b.CrossDomain(p, cs[0]) {
		t.Fatal("smuggler.net link should be cross-domain")
	}
	if b.CrossDomain(p, cs[1]) {
		t.Fatal("/local/page should be same-site")
	}
	if b.CrossDomain(p, cs[2]) {
		t.Fatal("iframes report false (unknown destination)")
	}
}

func TestCookieSyncDirective(t *testing.T) {
	n := netsim.New()
	var syncedValue string
	n.HandleFunc("pageowner.com", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><body>
<script data-cc="cookie-sync" data-tracker="t1.com" data-endpoint="http://t2.com/sync"></script>
</body></html>`)
	})
	n.HandleFunc("t2.com", func(w http.ResponseWriter, r *http.Request) {
		syncedValue = r.URL.Query().Get("puid")
		http.SetCookie(w, &http.Cookie{Name: "partner_uid", Value: syncedValue, MaxAge: 3600})
		fmt.Fprint(w, "ok")
	})
	b := newBrowser(t, n, "u1")
	if _, err := b.Navigate("http://pageowner.com/", ""); err != nil {
		t.Fatal(err)
	}
	want := ident.UID(testSeed, "t1.com", "u1", "pageowner.com")
	if syncedValue != want {
		t.Fatalf("synced value = %q, want %q", syncedValue, want)
	}
	// The partner stored it third-party — partitioned under this page.
	now := b.clock.Now()
	if c, ok := b.Store().Cookie(storage.Context{FrameHost: "t2.com", TopHost: "pageowner.com"}, "partner_uid", now); !ok || c.Value != want {
		t.Fatalf("partner partition cookie: %+v ok=%v", c, ok)
	}
	// And NOT in any other partition (cookie syncing cannot cross sites
	// under partitioned storage — the reason UID smuggling exists).
	if _, ok := b.Store().Cookie(storage.Context{FrameHost: "t2.com", TopHost: "elsewhere.com"}, "partner_uid", now); ok {
		t.Fatal("cookie sync leaked across partitions")
	}
}

func TestMatchClassDecoration(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("m.com", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><body>
<script data-cc="link-decorator" data-tracker="aff.com" data-param="affid" data-match-class="aff-x"></script>
<a href="http://shop1.com/" class="aff-x other">tagged</a>
<a href="http://shop2.com/">untagged</a>
</body></html>`)
	})
	b := newBrowser(t, n, "u1")
	p, err := b.Navigate("http://m.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	u0, err := b.ClickURL(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u0.Query().Get("affid") == "" {
		t.Fatalf("class-matched link not decorated: %s", u0)
	}
	u1, err := b.ClickURL(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u1.Query().Get("affid") != "" {
		t.Fatalf("unmatched link decorated: %s", u1)
	}
}

func TestGAFormatUID(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("g.com", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><body>
<script data-cc="link-decorator" data-tracker="ga-like.com" data-param="cid" data-cookie="_ga_like" data-uid-format="ga"></script>
<a href="http://other.com/">out</a>
</body></html>`)
	})
	n.HandleFunc("other.com", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "<html></html>") })
	b1 := newBrowser(t, n, "u1")
	b2 := newBrowser(t, n, "u2")
	p1, _ := b1.Navigate("http://g.com/", "")
	p2, _ := b2.Navigate("http://g.com/", "")
	u1, _ := b1.ClickURL(p1, 0)
	u2, _ := b2.ClickURL(p2, 0)
	v1, v2 := u1.Query().Get("cid"), u2.Query().Get("cid")
	if !strings.HasPrefix(v1, "GA1.2.") || !strings.HasSuffix(v1, ".1646092800") {
		t.Fatalf("GA format wrong: %q", v1)
	}
	if v1 == v2 {
		t.Fatal("different users must get different GA client ids")
	}
	// The cookie stores the same formatted value the link carries.
	now := b1.clock.Now()
	if c, ok := b1.Store().Cookie(storage.Context{FrameHost: "g.com", TopHost: "g.com"}, "_ga_like", now); !ok || c.Value != v1 {
		t.Fatalf("cookie/link value mismatch: %+v vs %q", c, v1)
	}
}

// TestClickURLReturnsFreshCopy: anchors are resolved once per page, and
// ClickURL hands out a copy of that resolution, so a caller mutating one
// result never changes the next.
func TestClickURLReturnsFreshCopy(t *testing.T) {
	b := newBrowser(t, fixture(t), "u1")
	// news.com registers link decorators; the ad page has none, so its
	// anchor's URL leaves ClickURL undecorated.
	for _, page := range []string{"http://news.com/", "http://ads.com/slot"} {
		p, err := b.Navigate(page, "")
		if err != nil {
			t.Fatal(err)
		}
		first, err := b.ClickURL(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := first.String()
		first.Host, first.Path, first.RawQuery = "mutated.example", "/x", "y=1"
		second, err := b.ClickURL(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if second == first || second.String() != want {
			t.Fatalf("%s: second ClickURL = %s, want a fresh %s", page, second, want)
		}
	}
}

// TestFetchErrorStringsMatchHTTPClient: the browser calls the network's
// RoundTrip directly, and its request log must record exactly the error
// strings an http.Client over the same network reports.
func TestFetchErrorStringsMatchHTTPClient(t *testing.T) {
	for _, tc := range []struct {
		name, url string
		setup     func(*netsim.Network)
	}{
		{"unknown host", "http://nowhere.example/p?q=1", func(*netsim.Network) {}},
		{"connect fault", "http://news.com/", func(n *netsim.Network) {
			n.SetFaults(netsim.NewFaultInjector(1, 1.0))
		}},
		{"deadline", "http://news.com/a/b", func(n *netsim.Network) {
			n.SetFaults(netsim.NewFaultInjectorConfig(4, netsim.FaultConfig{SpikeRate: 1, SpikeLatency: 30 * time.Second}))
			n.SetRequestDeadline(5 * time.Second)
		}},
	} {
		n := fixture(t)
		tc.setup(n)
		_, cerr := n.Client().Get(tc.url)
		if cerr == nil {
			t.Fatalf("%s: http.Client got no error", tc.name)
		}
		b := newBrowser(t, n, "u1")
		if _, err := b.Navigate(tc.url, ""); err == nil {
			t.Fatalf("%s: navigate succeeded", tc.name)
		}
		reqs := b.Requests()
		if len(reqs) != 1 {
			t.Fatalf("%s: %d requests logged", tc.name, len(reqs))
		}
		if got, want := reqs[0].Err, cerr.Error(); got != want {
			t.Errorf("%s: recorded Err = %q, http.Client said %q", tc.name, got, want)
		}
		if prefix := `Get "` + tc.url + `": `; !strings.HasPrefix(reqs[0].Err, prefix) {
			t.Errorf("%s: recorded Err = %q, want prefix %q", tc.name, reqs[0].Err, prefix)
		}
	}
}
