package web

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/words"
)

// visitor is the request identity extracted from the simulation headers.
type visitor struct {
	profile string
	client  string
	machine string
}

func visitorFrom(r *http.Request) visitor {
	return visitor{
		profile: r.Header.Get(ident.HeaderProfile),
		client:  r.Header.Get(ident.HeaderClient),
		machine: r.Header.Get(ident.HeaderMachine),
	}
}

// adSizes are standard display-ad dimensions for iframe slots.
var adSizes = [][2]int{{300, 250}, {728, 90}, {160, 600}, {336, 280}}

// writePage synthesizes a site page straight into dw. Static structure
// derives from (seed, site, path); dynamic parts derive from (seed, site,
// path, client, load count), so simultaneous loads by different crawlers
// agree on the static skeleton and disagree on rotated content — the
// split that drives the paper's static/dynamic smuggling distinction and
// its synchronization failures. The page is written in document order,
// and every RNG draw happens in the order the served bytes pin.
func (w *World) writePage(s *Site, path string, v visitor, dw *dom.Writer) {
	srng := stats.AcquireRNG(w.split.Child("page").Child(s.Domain).Seed(path))
	defer srng.Release()
	loadN := w.visit(ident.Join("load", v.client, s.Domain, path))
	drng := stats.AcquireRNG(stats.DeriveSeed(w.cfg.Seed,
		ident.Join("dyn", s.Domain, path, v.client, strconv.Itoa(loadN))))
	defer drng.Release()
	volatile := srng.Bool(w.cfg.PVolatilePage)
	sess := ident.SessionID(w.cfg.Seed, s.Domain, v.client, strconv.Itoa(loadN))

	dw.Open("html")
	dw.Open("head")
	dw.Elem("title", titleCase(s.Domain)+" — "+s.Category)
	dw.Close() // head
	dw.Open("body")
	w.addScripts(s, dw)
	// The heading comes after the navigation in the document but is
	// drawn before it.
	h1 := slugFrom(srng, 2)

	if volatile {
		// A fully dynamic page: even its navigation differs per load, so
		// the controller finds no common element (the paper's 7.6%
		// synchronization failures).
		dw.Open("nav", "id", "top")
		for k := 0; k < 3; k++ {
			// Not Elem: the link text is drawn after the attributes.
			dw.Open("a",
				"href", fmt.Sprintf("/p/%d", drng.Intn(100000)),
				"data-n"+strconv.Itoa(drng.Intn(50)), "1",
			)
			dw.Text(slugFrom(drng, 1))
			dw.Close()
		}
		dw.Close() // nav
		dw.Open("div", "class", "content", "id", "main")
		dw.Elem("h1", h1)
		w.addVolatileContent(s, dw, drng)
		dw.Close() // div
		dw.Close() // body
		dw.Close() // html
		return
	}

	// Navigation: internal links, one optionally carrying a session ID.
	dw.Open("nav", "id", "top")
	for k := 0; k < w.cfg.InternalLinkCount; k++ {
		href := fmt.Sprintf("/p/%d", (k*7+len(path)*3)%30)
		if k == 1 && srng.Bool(w.cfg.PSessionLink) {
			href += "?sid=" + sess
		}
		dw.Elem("a", stats.Pick(srng, words.Common), "href", href)
	}
	dw.Close() // nav
	dw.Open("div", "class", "content", "id", "main")
	dw.Elem("h1", h1)

	// Static external links.
	for i := 0; i < s.ExtLinks; i++ {
		w.addExternalLink(s, dw, srng, v, i, sess)
	}
	// Org-sync sibling links (static, on some pages).
	if s.SyncTracker != nil && len(s.Siblings) > 0 && srng.Bool(0.22) {
		sib := s.Siblings[srng.Intn(len(s.Siblings))]
		dw.Elem("a", "our "+stats.Pick(srng, words.Common)+" site", "href", "http://"+sib+"/", "class", "org-link")
	}
	// SSO login link to a partner with an account page. Some links omit
	// the return URL: the sign-in host is then visited as a destination,
	// which is what keeps it out of the dedicated-smuggler class.
	if p, ok := w.ssoPartner(s, srng); ok {
		href := "http://" + p.ssoHost + "/login"
		if !srng.Bool(w.cfg.PSSOBareLogin) {
			href += "?return=" + url.QueryEscape("http://"+p.domain+"/account")
		}
		dw.Elem("a", "sign in", "href", href, "class", "login")
	}
	// One dynamic "recommended" link: present on every load but pointing
	// somewhere different per client, with a varying attribute set so the
	// matching heuristics correctly reject it.
	rec := w.gen.domainAt(drng.Intn(w.cfg.NumSites))
	dw.Elem("a", "recommended",
		"href", "http://"+rec+"/?ref="+slugFrom(drng, 2),
		"class", "recommended",
		"data-v"+strconv.Itoa(drng.Intn(50)), "1",
	)

	// Ad slots.
	for k := 0; k < s.AdSlots && len(s.AdNetworks) > 0; k++ {
		net := s.AdNetworks[k%len(s.AdNetworks)]
		size := adSizes[srng.Intn(len(adSizes))]
		dw.Elem("iframe", "",
			"src", fmt.Sprintf("http://%s/slot?pub=%s&sl=%d", net.ServeHost, s.Domain, k),
			"width", strconv.Itoa(size[0]),
			"height", strconv.Itoa(size[1]),
			"class", "ad-slot",
		)
	}
	dw.Close() // div

	dw.Elem("footer", "© "+s.Org)
	dw.Close() // body
	dw.Close() // html
}

// addScripts writes the site's tracker script tags.
func (w *World) addScripts(s *Site, dw *dom.Writer) {
	for _, t := range s.Decorators {
		directive := "link-decorator"
		if t.RefererSmuggler {
			directive = "referrer-decorator"
		}
		attrs := append(make([]string, 0, 18),
			"src", "http://"+t.ScriptHost+"/t.js",
			"data-cc", directive,
			"data-tracker", t.Domain,
			"data-param", t.Param,
			"data-cookie", t.CookieName,
			"data-ttl-days", strconv.Itoa(t.TTLDays),
			"data-match-class", "aff-"+t.Name,
		)
		if t.UIDFormat != "" {
			attrs = append(attrs, "data-uid-format", t.UIDFormat)
		}
		if s.fpDecorator[t.Domain] {
			attrs = append(attrs, "data-fingerprint", "1")
		}
		dw.Elem("script", "", attrs...)
	}
	if s.SyncTracker != nil {
		dw.Elem("script", "",
			"data-cc", "link-decorator",
			"data-tracker", s.SyncTracker.Domain,
			"data-param", s.SyncTracker.Param,
			"data-cookie", s.SyncTracker.CookieName,
			"data-ttl-days", strconv.Itoa(s.SyncTracker.TTLDays),
			"data-match-class", "org-link",
		)
	}
	for _, t := range s.Analytics {
		dw.Elem("script", "",
			"src", "http://"+t.ScriptHost+"/a.js",
			"data-cc", "beacon",
			"data-endpoint", "http://"+t.ScriptHost+"/collect",
			"data-include-url", "1",
			"data-uid-param", "cid",
			"data-tracker", t.Domain,
		)
	}
	// Cookie syncing between co-located third parties (§8.2): same-page
	// UID sharing that partitioned storage already contains. The pipeline
	// must not confuse these beacons with navigational smuggling.
	if len(s.Analytics) >= 2 {
		a, b := s.Analytics[0], s.Analytics[1]
		dw.Elem("script", "",
			"src", "http://"+a.ScriptHost+"/sync.js",
			"data-cc", "cookie-sync",
			"data-tracker", a.Domain,
			"data-endpoint", "http://"+b.ScriptHost+"/sync",
		)
	}
	for _, t := range s.Collectors {
		// Destination-side collector: the tracker's own script harvests
		// its smuggled parameters into first-party cookies with its own
		// lifetime (step 3 of Fig. 2).
		dw.Elem("script", "",
			"src", "http://"+t.ScriptHost+"/t.js",
			"data-cc", "collector",
			"data-tracker", t.Domain,
			"data-params", t.Param+","+t.MidParam,
			"data-cookie-prefix", "_in_",
			"data-ttl-days", strconv.Itoa(t.TTLDays),
			"data-beacon", "http://"+t.ScriptHost+"/collect",
		)
	}
	if s.Fingerprinting {
		// Marker for fingerprinting code (function carried by the
		// decorators' data-fingerprint attribute).
		dw.Elem("script", "", "src", "http://"+s.Domain+"/fp.js", "class", "fingerprint")
	}
}

// addExternalLink writes the i-th static external link, choosing its
// tracking flavour from the configured mix.
func (w *World) addExternalLink(s *Site, dw *dom.Writer, srng *stats.RNG, v visitor, i int, sess string) {
	roll := srng.Float64()
	cfg := w.cfg
	var href, class string
	switch {
	case roll < cfg.PDirectDecorated && len(s.Decorators) > 0:
		// Affiliate link straight to the retailer; the decorator script
		// adds the UID at click time (smuggling, zero redirectors).
		t := s.Decorators[srng.Intn(len(s.Decorators))]
		if len(t.DestRetailers) == 0 {
			break
		}
		dest := t.DestRetailers[srng.Intn(len(t.DestRetailers))]
		href, class = "http://"+dest+"/land?aid="+linkID(t, s, i), "aff-"+t.Name
	case roll < cfg.PDirectDecorated+cfg.PViaSmuggler && len(s.Decorators) > 0:
		// Affiliate link through the tracker's click-host chain.
		t := s.Decorators[srng.Intn(len(s.Decorators))]
		if len(t.DestRetailers) == 0 || len(t.ClickHosts) == 0 {
			break
		}
		dest := t.DestRetailers[srng.Intn(len(t.DestRetailers))]
		href = clickChainURL(t.ClickHosts, "http://"+dest+"/land", linkID(t, s, i), nil)
		class = "aff-" + t.Name
	case roll < cfg.PDirectDecorated+cfg.PViaSmuggler+cfg.PViaBounce && len(w.bounces) > 0:
		// Bounce-tracked link: redirector, no UID.
		t := w.bounces[srng.Intn(len(w.bounces))]
		dest := s.Partners[srng.Intn(len(s.Partners))]
		href = "http://" + t.ClickHosts[0] + "/b?d=" + url.QueryEscape("http://"+dest+"/")
	default:
		if len(s.Partners) == 0 {
			break
		}
		dest := s.Partners[srng.Intn(len(s.Partners))]
		href = "http://" + dest + "/"
		if s.ShortenerHost != "" && srng.Bool(0.5) {
			// Outbound links through the site's own shortener; when the
			// org syncs UIDs, the shortener URL carries one
			// (server-side decoration).
			q := "d=" + url.QueryEscape(href)
			if s.SyncTracker != nil {
				q += "&" + s.SyncTracker.Param + "=" + ident.UID(w.cfg.Seed, s.SyncTracker.Domain, v.profile)
			}
			href = "http://" + s.ShortenerHost + "/r?" + q
		} else if srng.Bool(cfg.PSessionLeak) {
			// Session-ID leak across the site boundary — the token class
			// the Safari-1R repeat crawler exists to discard.
			href += "?sid=" + sess
		} else if srng.Bool(cfg.PBenignParams) {
			href += "?" + benignQuery(srng)
		}
	}
	switch {
	case href == "":
		// No link of the rolled flavour fits this site.
	case class == "":
		dw.Elem("a", slugFrom(srng, 1), "href", href)
	default:
		dw.Elem("a", slugFrom(srng, 1), "href", href, "class", class)
	}
}

// addVolatileContent fills a fully dynamic page: every element differs per
// client, so the central controller can never find a common element (the
// paper's 7.6% synchronization failures).
func (w *World) addVolatileContent(s *Site, dw *dom.Writer, drng *stats.RNG) {
	nLinks := 2 + drng.Intn(3)
	for i := 0; i < nLinks; i++ {
		dest := w.gen.domainAt(drng.Intn(w.cfg.NumSites))
		dw.Open("a",
			"href", fmt.Sprintf("http://%s/p/%d?ref=%s", dest, drng.Intn(10), slugFrom(drng, 2)),
			"data-v"+strconv.Itoa(drng.Intn(50)), "1",
		)
		dw.Text(slugFrom(drng, 1))
		dw.Close()
	}
	if len(s.AdNetworks) > 0 {
		net := s.AdNetworks[0]
		dw.Elem("iframe", "",
			"src", fmt.Sprintf("http://%s/slot?pub=%s&sl=0&cb=%d", net.ServeHost, s.Domain, drng.Intn(1<<30)),
			"width", strconv.Itoa(200+drng.Intn(400)),
			"height", strconv.Itoa(100+drng.Intn(300)),
			"data-r"+strconv.Itoa(drng.Intn(50)), "1",
		)
	}
}

// ssoPartner picks a partner site with an SSO host, if any. Candidates
// resolve from the generation plan alone, so a lazy world never
// materialises a partner just to learn it has no sign-in host.
func (w *World) ssoPartner(s *Site, rng *stats.RNG) (ssoRef, bool) {
	s.ssoOnce.Do(func() {
		for _, d := range s.Partners {
			if info, ok := w.gen.ssoInfo(d); ok {
				s.ssoCands = append(s.ssoCands, info)
			}
		}
	})
	candidates := s.ssoCands
	if len(candidates) == 0 || !rng.Bool(0.12) {
		return ssoRef{}, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

// linkID derives the stable affiliate link identifier used for
// deterministic per-link carry/injection decisions at the redirectors.
func linkID(t *Tracker, s *Site, i int) string {
	return fmt.Sprintf("%s-%s-l%d", t.Name, s.Domain, i)
}

// clickChainURL builds the entry URL of a redirect chain: the first hop
// with the destination, remaining hops and ad/link id encoded, plus any
// pre-set uid parameters.
func clickChainURL(chain []string, dest, aid string, uidParams url.Values) string {
	if len(chain) == 0 {
		u, _ := url.Parse(dest)
		q := u.Query()
		q.Set("aid", aid)
		for k, vs := range uidParams {
			for _, v := range vs {
				q.Set(k, v)
			}
		}
		u.RawQuery = q.Encode()
		return u.String()
	}
	q := url.Values{}
	q.Set("d", dest)
	q.Set("aid", aid)
	if len(chain) > 1 {
		q.Set("via", strings.Join(chain[1:], "|"))
	}
	for k, vs := range uidParams {
		for _, v := range vs {
			q.Set(k, v)
		}
	}
	return "http://" + chain[0] + "/c?" + q.Encode()
}

// benignQuery builds look-alike query parameters: slugs, locales,
// coordinates, timestamps, concatenated words — the paper's §3.7.2
// false-positive classes.
func benignQuery(rng *stats.RNG) string {
	var parts []string
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			parts = append(parts, "ref="+slugFrom(rng, 2+rng.Intn(3)))
		case 1:
			parts = append(parts, "utm_campaign="+slugFrom(rng, 2))
		case 2:
			parts = append(parts, "lang="+stats.Pick(rng, words.Locales))
		case 3:
			parts = append(parts, fmt.Sprintf("geo=%d.%d,-%d.%d",
				rng.Intn(80), rng.Intn(9999), rng.Intn(170), rng.Intn(9999)))
		case 4:
			// Epoch-era timestamp drawn from the page RNG: page bytes
			// must not depend on when, in any walk's time, a page is
			// served.
			parts = append(parts, fmt.Sprintf("ts=%d",
				netsim.Epoch.Unix()+int64(rng.Intn(45*24*3600))))
		default:
			parts = append(parts, "topic="+concatWords(rng, 2+rng.Intn(2)))
		}
	}
	return strings.Join(parts, "&")
}
