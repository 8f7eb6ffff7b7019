package web

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/ident"
)

// registerSiteHandlers wires one site's hosts onto the network: the
// content domain, its shortener and its org's SSO host. Eager worlds
// call it for every site at build time; lazy worlds call it from the
// network resolver on a site's first visit. Registering the same host
// twice (SSO hosts shared by sync-org members, resolver races) is
// harmless — the handlers behave identically.
func (w *World) registerSiteHandlers(s *Site) {
	site := s
	w.net.HandleFunc(site.Domain, func(rw http.ResponseWriter, r *http.Request) {
		w.serveSite(site, rw, r)
	})
	if site.ShortenerHost != "" {
		w.net.HandleFunc(site.ShortenerHost, func(rw http.ResponseWriter, r *http.Request) {
			w.serveShortener(site, rw, r)
		})
	}
	if site.SSOHost != "" {
		sso := site.SSOHost
		w.net.HandleFunc(sso, func(rw http.ResponseWriter, r *http.Request) {
			w.serveSSO(sso, rw, r)
		})
	}
}

// registerTrackerHandlers wires every tracker host onto the network.
// Tracker infrastructure is always registered eagerly: it is plan-sized
// (a few hundred hosts), and redirect chains must resolve even when the
// chain's hosts were never visited as sites.
func (w *World) registerTrackerHandlers() {
	for _, t := range w.trackers {
		tracker := t
		if tracker.ScriptHost != "" {
			w.net.HandleFunc(tracker.ScriptHost, func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/sync" {
					// Cookie-sync endpoint: store the partner's UID in
					// this tracker's own (policy-partitioned) bucket.
					if puid := r.URL.Query().Get("puid"); puid != "" {
						http.SetCookie(rw, &http.Cookie{Name: "partner_uid", Value: puid, MaxAge: 86400 * 390})
					}
				}
				rw.Header().Set("Content-Type", "text/plain")
				fmt.Fprint(rw, "ok")
			})
		}
		if tracker.ServeHost != "" {
			w.net.HandleFunc(tracker.ServeHost, func(rw http.ResponseWriter, r *http.Request) {
				w.serveAdSlot(tracker, rw, r)
			})
		}
		for _, h := range tracker.ClickHosts {
			host := h
			w.net.HandleFunc(host, func(rw http.ResponseWriter, r *http.Request) {
				w.serveClick(tracker, host, rw, r)
			})
		}
	}
}

// serveSite renders a content page, the retailer landing page, or the
// token-gated account page.
func (w *World) serveSite(s *Site, rw http.ResponseWriter, r *http.Request) {
	v := visitorFrom(r)
	// Session cookie on every page response (no expiry: a true session
	// cookie, dying with the profile).
	loadKey := ident.Join("sess", v.client, s.Domain)
	http.SetCookie(rw, &http.Cookie{
		Name:  "PSESSID",
		Value: ident.SessionID(w.cfg.Seed, s.Domain, v.client, strconv.Itoa(w.visit(loadKey))),
	})

	if r.URL.Path == "/account" && s.HasAccount {
		w.serveAccount(s, rw, r)
		return
	}
	rw.Header().Set("Content-Type", "text/html")
	w.writePage(s, r.URL.Path, v, dom.NewWriter(rw))
}

// serveAccount implements the §6 breakage experiment's login pages: how
// the page degrades without its token depends on the site's breakage
// class.
func (w *World) serveAccount(s *Site, rw http.ResponseWriter, r *http.Request) {
	atok := r.URL.Query().Get("atok")
	if atok == "" && s.BreakageClass == 3 {
		// Hard breakage: bounce to the homepage.
		http.Redirect(rw, r, "http://"+s.Domain+"/", http.StatusFound)
		return
	}
	if atok != "" {
		http.SetCookie(rw, &http.Cookie{Name: "auth", Value: atok, MaxAge: 86400 * 180})
	}

	rw.Header().Set("Content-Type", "text/html")
	dw := dom.NewWriter(rw)
	dw.Open("html")
	dw.Open("head")
	dw.Elem("title", "Account — "+s.Domain)
	dw.Close() // head
	dw.Open("body")
	if atok == "" && s.BreakageClass == 1 {
		// Minor breakage: an extra 20px notice shifts the body down.
		dw.Elem("div", "please sign in", "id", "notice", "height", "20")
	}
	dw.Elem("h1", "Your account")
	dw.Open("form", "id", "profile")
	if s.BreakageClass == 2 && atok != "" {
		// Autofill only works with the token.
		dw.Open("input", "type", "text", "name", "email", "value", "user@"+s.Domain)
	} else {
		dw.Open("input", "type", "text", "name", "email")
	}
	dw.Close() // form; input is void
	dw.Elem("a", "home", "href", "/")
	dw.Close() // body
	dw.Close() // html
}

// serveSSO is the organisation's sign-in redirector: it mints (or
// recalls) the org-wide auth UID as a first-party cookie and forwards it
// to the return URL — a multi-purpose smuggler (§5.1's
// signin.lexisnexis.com pattern).
func (w *World) serveSSO(host string, rw http.ResponseWriter, r *http.Request) {
	v := visitorFrom(r)
	atok := ""
	if c, err := r.Cookie("sso_uid"); err == nil {
		atok = c.Value
	}
	if atok == "" {
		atok = ident.UID(w.cfg.Seed, w.regDomain(host), "sso", v.profile)
	}
	http.SetCookie(rw, &http.Cookie{Name: "sso_uid", Value: atok, MaxAge: 86400 * 390})

	ret := r.URL.Query().Get("return")
	if ret == "" {
		home := strings.TrimPrefix(host, "signin.")
		rw.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(rw, `<html><head><title>Sign in</title></head><body><h1>Sign in</h1><form id="login"><input type="text" name="user"></form><a href="http://%s/">back</a></body></html>`, home)
		return
	}
	u, err := url.Parse(ret)
	if err != nil {
		http.Error(rw, "bad return", http.StatusBadRequest)
		return
	}
	q := u.Query()
	q.Set("atok", atok)
	u.RawQuery = q.Encode()
	http.Redirect(rw, r, u.String(), http.StatusFound)
}

// serveShortener is a site-owned outbound redirector (t.co pattern). When
// the owning organisation syncs UIDs, incoming sync parameters are stored
// and carried onward.
func (w *World) serveShortener(s *Site, rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	dest := q.Get("d")
	if dest == "" {
		http.Error(rw, "missing destination", http.StatusBadRequest)
		return
	}
	u, err := url.Parse(dest)
	if err != nil {
		http.Error(rw, "bad destination", http.StatusBadRequest)
		return
	}
	if s.SyncTracker != nil {
		if uid := q.Get(s.SyncTracker.Param); uid != "" {
			http.SetCookie(rw, &http.Cookie{Name: "_short_in", Value: uid, MaxAge: 86400 * 390})
			// Carry onward with the tracker-confidence probability,
			// decided deterministically per destination.
			if ident.ShortHash(w.cfg.Seed, 1000, "short-carry", s.ShortenerHost, u.Hostname()) <
				int(w.cfg.TrackerConfidence*1000) {
				uq := u.Query()
				uq.Set(s.SyncTracker.Param, uid)
				u.RawQuery = uq.Encode()
			}
		}
	}
	http.Redirect(rw, r, u.String(), http.StatusFound)
}

// serveClick is a tracker redirector hop — the paper's Figure 2 step 2.
// It stores every incoming UID parameter as a first-party cookie (the
// privilege partitioned storage cannot remove), forwards UID parameters
// with the tracker's confidence, sometimes injects its own UID, and
// redirects to the next hop or the destination.
func (w *World) serveClick(t *Tracker, host string, rw http.ResponseWriter, r *http.Request) {
	v := visitorFrom(r)
	q := r.URL.Query()
	aid := q.Get("aid")

	// Own first-party UID (reused via cookie, minted deterministically
	// otherwise).
	own := ""
	if c, err := r.Cookie("ruid"); err == nil {
		own = c.Value
	}
	if own == "" {
		own = ident.UID(w.cfg.Seed, w.regDomain(host), v.profile)
	}
	http.SetCookie(rw, &http.Cookie{Name: "ruid", Value: own, MaxAge: 86400 * 390})

	// Harvest incoming UID parameters into first-party storage. Query
	// values are a map, so walk its keys sorted: Set-Cookie header order
	// (and uidParams below) must not leak map-iteration order into the
	// simulated responses.
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	var uidParams []string
	for _, name := range names {
		if w.truth.ParamKindOf(name) == ParamUID {
			uidParams = append(uidParams, name)
			http.SetCookie(rw, &http.Cookie{
				Name:   "in_" + name,
				Value:  q.Get(name),
				MaxAge: 86400 * 390,
			})
		}
	}

	// Resolve the next hop.
	dest := q.Get("d")
	if dest == "" {
		// A click host visited without routing state serves a bare page.
		rw.Header().Set("Content-Type", "text/html")
		fmt.Fprint(rw, "<html><head><title>redirect</title></head><body></body></html>")
		return
	}
	var via []string
	if vstr := q.Get("via"); vstr != "" {
		via = strings.Split(vstr, "|")
	}
	var next *url.URL
	var err error
	if len(via) > 0 {
		next, err = url.Parse("http://" + via[0] + "/c")
		if err == nil {
			nq := url.Values{}
			nq.Set("d", dest)
			if len(via) > 1 {
				nq.Set("via", strings.Join(via[1:], "|"))
			}
			if aid != "" {
				nq.Set("aid", aid)
			}
			next.RawQuery = nq.Encode()
		}
	} else {
		next, err = url.Parse(dest)
		if err == nil && aid != "" {
			nq := next.Query()
			nq.Set("aid", aid)
			next.RawQuery = nq.Encode()
		}
	}
	if err != nil || next == nil {
		http.Error(rw, "bad routing", http.StatusBadRequest)
		return
	}

	// Forward incoming UID parameters per-hop with the tracker's
	// confidence (deterministic per hop/link, so all crawlers agree).
	nq := next.Query()
	for _, name := range uidParams {
		if ident.ShortHash(w.cfg.Seed, 1000, "carry", host, aid, name) <
			int(w.cfg.TrackerConfidence*1000) {
			nq.Set(name, q.Get(name))
		}
	}
	// Mid-chain injection of the redirector's own UID — how partial
	// transfers beginning at a redirector arise (Fig. 8).
	if t.Smuggles && t.MidParam != "" &&
		ident.ShortHash(w.cfg.Seed, 1000, "inj", host, aid) < int(w.cfg.PMidChainInject*1000) {
		nq.Set(t.MidParam, own)
	}
	next.RawQuery = nq.Encode()
	http.Redirect(rw, r, next.String(), http.StatusFound)
}

// isSafariUA recognises a Safari User-Agent the way real trackers do:
// WebKit "Version/x" token present, "Chrome" absent. Spoofed UAs pass —
// the paper notes only sophisticated fingerprinting could see through the
// spoof (§3.4).
func isSafariUA(ua string) bool {
	return strings.Contains(ua, "Version/") && !strings.Contains(ua, "Chrome")
}

// serveAdSlot serves an iframe ad. The creative usually comes from the
// campaign's default (identical across crawlers) and is otherwise rotated
// per load — the source of dynamic UID smuggling and divergent-FQDN
// failures. The click URL carries the network's partition-scoped UID,
// which is exactly what the network needs to link back to its first-party
// identity at the click host.
func (w *World) serveAdSlot(t *Tracker, rw http.ResponseWriter, r *http.Request) {
	v := visitorFrom(r)
	q := r.URL.Query()
	pub := q.Get("pub")
	sl := q.Get("sl")

	// Partition-scoped UID: reuse the cookie when the browser's policy
	// lets it return, mint deterministically otherwise.
	top := ""
	if ref := r.Header.Get("Referer"); ref != "" {
		if u, err := url.Parse(ref); err == nil {
			top = w.regDomain(u.Hostname())
		}
	}
	puid := ""
	if c, err := r.Cookie("pid"); err == nil {
		puid = c.Value
	}
	if puid == "" {
		puid = ident.UID(w.cfg.Seed, t.Domain, v.profile, top)
	}
	http.SetCookie(rw, &http.Cookie{Name: "pid", Value: puid, MaxAge: 86400 * 390})

	if len(t.Campaigns) == 0 {
		rw.Header().Set("Content-Type", "text/html")
		fmt.Fprint(rw, "<html><body></body></html>")
		return
	}
	loadN := w.visit(ident.Join("ad", v.client, t.ServeHost, pub, sl))
	var camp *Campaign
	var adIdx int
	if ident.ShortHash(w.cfg.Seed, 1000, "adroll", v.client, pub, sl, strconv.Itoa(loadN)) <
		int(w.cfg.PDefaultAd*1000) {
		// The slot's default campaign: one of the serving network's own,
		// identical for every crawler.
		camp = t.Campaigns[ident.ShortHash(w.cfg.Seed, len(t.Campaigns), "defcamp", pub, sl)]
		adIdx = 0
	} else {
		// Rotation draws from the cross-network syndication pool, so a
		// rotated creative may belong to a different tracker entirely —
		// different UID parameter, different chain. Most rotation stays
		// on the default campaign's destination (different advertiser
		// pipes, same landing site); occasionally it jumps destinations,
		// which is what produces the paper's 1.8% divergent steps.
		def := t.Campaigns[ident.ShortHash(w.cfg.Seed, len(t.Campaigns), "defcamp", pub, sl)]
		pool := w.campaignsByDest[def.Dest]
		if len(pool) < 2 ||
			ident.ShortHash(w.cfg.Seed, 1000, "freerot", v.client, pub, sl, strconv.Itoa(loadN)) <
				int(w.cfg.PAdFreeRotation*1000) {
			pool = w.allCampaigns
		}
		camp = pool[ident.ShortHash(w.cfg.Seed, len(pool), "rndcamp", v.client, pub, sl, strconv.Itoa(loadN))]
		adIdx = ident.ShortHash(w.cfg.Seed, camp.Ads, "rndad", v.client, pub, sl, strconv.Itoa(loadN))
	}
	owner := camp.Owner

	// The routing id is short (under the token pipeline's length floor);
	// the creative carries the campaign's own benign parameters.
	aid := ident.OpaqueToken(w.cfg.Seed, 8, "aid", camp.ID, strconv.Itoa(adIdx))[:6]
	extras := url.Values{}
	if owner.Smuggles && !(owner.SafariOnly && !isSafariUA(r.UserAgent())) {
		ownerUID := puid
		if owner != t {
			// Syndicated creative: the owning network's partition UID
			// (synced through the exchange).
			ownerUID = ident.UID(w.cfg.Seed, owner.Domain, v.profile, top)
		}
		extras.Set(owner.Param, ownerUID)
	}
	for k, val := range camp.Extra {
		extras.Set(k, val)
	}
	click := clickChainURL(camp.Chain, "http://"+camp.Dest+"/land", aid, extras)

	rw.Header().Set("Content-Type", "text/html")
	dw := dom.NewWriter(rw)
	dw.Open("html")
	dw.Open("body")
	dw.Open("a", "href", click, "class", "ad-click")
	dw.Open("img", "src", "http://"+t.ServeHost+"/img/"+aid+".png", "alt", "ad")
	dw.Close() // a; img is void
	dw.Close() // body
	dw.Close() // html
}
