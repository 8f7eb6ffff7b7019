package countermeasures

import (
	"fmt"
	"net/url"
	"strings"
	"testing"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/storage"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/web"
)

func TestDebounceExtractsDestination(t *testing.T) {
	d := NewDebouncer(nil, nil)
	raw := "http://smuggler.net/c?d=" + url.QueryEscape("http://shop.com/land") + "&zclid=deadbeef01"
	res := d.Debounce(raw)
	if !res.Debounced {
		t.Fatal("should debounce")
	}
	if res.URL != "http://shop.com/land" {
		t.Fatalf("url = %q", res.URL)
	}
}

func TestDebounceChained(t *testing.T) {
	inner := "http://final.com/?x=1"
	mid := "http://hop2.net/c?d=" + url.QueryEscape(inner)
	outer := "http://hop1.net/c?d=" + url.QueryEscape(mid)
	res := NewDebouncer(nil, nil).Debounce(outer)
	if !res.Debounced || !strings.HasPrefix(res.URL, "http://final.com/") {
		t.Fatalf("res = %+v", res)
	}
}

func TestDebounceStripsBlocklistedParams(t *testing.T) {
	d := NewDebouncer(nil, []string{"zclid"})
	raw := "http://smuggler.net/c?d=" + url.QueryEscape("http://shop.com/land?zclid=deadbeef01&keep=yes")
	res := d.Debounce(raw)
	if !res.Debounced {
		t.Fatal("should debounce")
	}
	u, _ := url.Parse(res.URL)
	if u.Query().Get("zclid") != "" {
		t.Fatalf("blocklisted param survived: %s", res.URL)
	}
	if u.Query().Get("keep") != "yes" {
		t.Fatalf("innocent param stripped: %s", res.URL)
	}
}

func TestDebounceSameSiteParamIgnored(t *testing.T) {
	// A same-site URL in a parameter is not a bounce destination.
	raw := "http://a.com/login?return=" + url.QueryEscape("http://a.com/account")
	res := NewDebouncer(nil, nil).Debounce(raw)
	if res.Debounced {
		t.Fatalf("same-site return should not debounce: %+v", res)
	}
}

func TestDebounceInterstitialForKnownSmuggler(t *testing.T) {
	d := NewDebouncer([]string{"opaque.smuggler.net"}, nil)
	res := d.Debounce("http://opaque.smuggler.net/c?blob=xyz")
	if res.Debounced || !res.Interstitial {
		t.Fatalf("expected interstitial: %+v", res)
	}
}

func TestStripParams(t *testing.T) {
	raw := "http://shop.com/land?zclid=deadbeef01&lang=en&aid=x1"
	got := StripParams(raw, func(name, _ string) bool { return name == "zclid" })
	u, _ := url.Parse(got)
	if u.Query().Get("zclid") != "" || u.Query().Get("lang") != "en" || u.Query().Get("aid") != "x1" {
		t.Fatalf("got %q", got)
	}
	// No-op returns the original string.
	if StripParams(raw, func(string, string) bool { return false }) != raw {
		t.Fatal("no-op should return original")
	}
}

func TestLooksLikeUIDValue(t *testing.T) {
	yes := []string{"4f2a9c1b7d8e0011aabb", "deadbeefdeadbeef"}
	for _, v := range yes {
		if !LooksLikeUIDValue(v) {
			t.Errorf("LooksLikeUIDValue(%q) = false", v)
		}
	}
	no := []string{"en", "share_button", "1646092800", "http://x.com/", "Dental_internal_whitepaper_topic"}
	for _, v := range no {
		if LooksLikeUIDValue(v) {
			t.Errorf("LooksLikeUIDValue(%q) = true", v)
		}
	}
}

func TestStripSuspectedUIDs(t *testing.T) {
	raw := "http://shop.com/land?known=x&mystery=4f2a9c1b7d8e0011aabb&lang=en-US"
	got := StripSuspectedUIDs(raw, map[string]bool{"known": true})
	u, _ := url.Parse(got)
	if u.Query().Get("known") != "" {
		t.Fatal("known param survived")
	}
	if u.Query().Get("mystery") != "" {
		t.Fatal("UID-shaped value survived")
	}
	if u.Query().Get("lang") != "en-US" {
		t.Fatal("benign param stripped")
	}
}

func mkPath(t *testing.T, urls ...string) *tokens.Path {
	t.Helper()
	p := &tokens.Path{}
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		node := tokens.PathNode{URL: raw, Host: u.Hostname(), Domain: u.Hostname()}
		p.Nodes = append(p.Nodes, node)
	}
	return p
}

func TestITPClassifier(t *testing.T) {
	c := NewITPClassifier()
	// pure.net only ever redirects; shared.com redirects but is also a
	// destination elsewhere; buddy.org shares a path with pure.net.
	c.ObservePath(mkPath(t, "http://a.com/", "http://pure.net/c", "http://b.com/"))
	c.ObservePath(mkPath(t, "http://a.com/", "http://pure.net/c", "http://buddy.org/c", "http://b.com/"))
	c.ObservePath(mkPath(t, "http://x.com/", "http://shared.com/r", "http://y.com/"))
	c.ObservePath(mkPath(t, "http://x.com/", "http://shared.com/"))

	got := c.Classified()
	set := map[string]bool{}
	for _, h := range got {
		set[h] = true
	}
	if !set["pure.net"] {
		t.Fatal("pure redirector not classified")
	}
	if !set["buddy.org"] {
		t.Fatal("guilt-by-association failed")
	}
	if set["shared.com"] {
		t.Fatal("user-facing site misclassified")
	}
}

// TestBreakageExperiment reproduces §6: strip the auth token from account
// pages and observe the breakage classes the world was built with.
func TestBreakageExperiment(t *testing.T) {
	cfg := web.SmallConfig()
	cfg.ConnectFailRate = 0
	w := web.BuildWorld(cfg)

	// Collect one account URL per breakage class available.
	byClass := map[int]string{}
	for _, s := range w.Sites() {
		if !s.HasAccount {
			continue
		}
		atok := ident.UID(cfg.Seed, s.Domain, "sso", "breakage-user")
		byClass[s.BreakageClass] = "http://" + s.Domain + "/account?atok=" + atok
	}
	if len(byClass) == 0 {
		t.Skip("no account pages in small world")
	}
	newBrowser := func() *browser.Browser {
		return browser.New(browser.Config{
			Seed: cfg.Seed, ProfileID: "breakage-user", ClientID: "breakage-client",
			Machine: "m", Policy: storage.Partitioned, Network: w.Network(),
		})
	}
	remove := func(name, _ string) bool { return name == "atok" }
	want := map[int]BreakageClass{
		0: BreakNone,
		1: BreakMinor,
		2: BreakMissingField,
		3: BreakRedirect,
	}
	for class, pageURL := range byClass {
		res := EvaluateBreakage(newBrowser(), pageURL, remove)
		if res.Class != want[class] {
			t.Errorf("class %d page %s: got %q, want %q", class, pageURL, res.Class, want[class])
		}
	}
}

func TestBreakageSampleCounts(t *testing.T) {
	cfg := web.SmallConfig()
	cfg.ConnectFailRate = 0
	w := web.BuildWorld(cfg)
	var urls []string
	for _, s := range w.Sites() {
		if s.HasAccount {
			atok := ident.UID(cfg.Seed, s.Domain, "sso", fmt.Sprintf("u%d", len(urls)))
			urls = append(urls, "http://"+s.Domain+"/account?atok="+atok)
		}
	}
	if len(urls) == 0 {
		t.Skip("no account pages")
	}
	n := 0
	summary := EvaluateBreakageSample(func() *browser.Browser {
		n++
		return browser.New(browser.Config{
			Seed: cfg.Seed, ProfileID: fmt.Sprintf("u%d", n), ClientID: fmt.Sprintf("c%d", n),
			Machine: "m", Policy: storage.Partitioned, Network: w.Network(),
		})
	}, urls, func(name, _ string) bool { return name == "atok" })
	total := 0
	for _, c := range summary.Counts {
		total += c
	}
	if total != len(urls) {
		t.Fatalf("counts %v don't cover %d pages", summary.Counts, len(urls))
	}
}
