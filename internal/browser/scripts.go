package browser

import (
	"strconv"
	"strings"
	"time"

	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/storage"
)

// The script engine.
//
// Real tracker behaviour is JavaScript shipped by the page; our synthetic
// web ships the same behaviour as declarative directives on <script>
// elements, which this engine interprets at page-load time (and, for link
// decorators, at click time). The attribute vocabulary:
//
//	data-cc="uid-sync"        ensure a first-party UID cookie exists for a
//	                          tracker (the _ga/_fbp pattern), optionally
//	                          mirror it to localStorage and beacon it home
//	data-cc="link-decorator"  decorate outgoing links with the tracker's
//	                          UID as a query parameter (step 1 of Fig. 2)
//	data-cc="collector"       on arrival, harvest listed query parameters
//	                          into first-party cookies and beacon them
//	                          home (step 3 of Fig. 2)
//	data-cc="beacon"          fire a third-party request, optionally
//	                          embedding the full page URL (the accidental
//	                          UID leak of Fig. 6)
//	data-cc="referrer-decorator"  append the tracker's UID to the
//	                          Referer the browser sends on outgoing
//	                          navigations instead of the target URL — the
//	                          §6 limitation: CrumbCruncher only inspects
//	                          query parameters of navigation URLs, so
//	                          these transfers are invisible to it
//	data-cc="cookie-sync"     share this tracker's UID with a partner
//	                          tracker's endpoint (classic cookie syncing,
//	                          §8.2 — same-page sharing that partitioned
//	                          storage already contains, and which the
//	                          pipeline must NOT flag as smuggling)
//	data-cc="local-token"     write a token into first-party localStorage
//
// Common attributes: data-tracker (owning tracker domain), data-cookie
// (cookie name), data-ttl-days, data-fingerprint ("1" derives the UID from
// the machine fingerprint instead of the profile), data-scope
// ("cross-domain" or "all"), data-params, data-beacon, data-param,
// data-key, data-kind, data-value, data-storage.

type decoratorScope int

const (
	scopeCrossDomain decoratorScope = iota
	scopeAll
)

type linkDecorator struct {
	param string
	value string
	scope decoratorScope
	// matchClass restricts decoration to anchors whose class attribute
	// contains this token (the way gclid only appears on Google ad links);
	// empty decorates every in-scope anchor.
	matchClass string
}

// trackerUID resolves the UID a tracker's client-side code uses on this
// page: fingerprint-derived (same across profiles — §3.5's failure mode)
// or profile-derived (per-user, per-site first-party ID).
func (b *Browser) trackerUID(tracker, pageHost string, fingerprint bool) string {
	if fingerprint {
		return ident.UID(b.cfg.Seed, tracker, "fp", ident.Fingerprint(b.cfg.Seed, b.cfg.Machine))
	}
	return ident.UID(b.cfg.Seed, tracker, b.cfg.ProfileID, b.regDomain(pageHost))
}

// formatUID renders a UID in the tracker's value format. The "ga" format
// mimics Google-Analytics-style client IDs ("GA1.2.<random>.<epoch>"):
// different users share most of the characters, so prior work's
// Ratcliff/Obershelp fuzzy matching (33–45% slack) wrongly unifies them
// while CrumbCruncher's exact comparison keeps them apart (§8.1).
func formatUID(format, raw string) string {
	if format != "ga" {
		return raw
	}
	var n uint64
	for i := 0; i < len(raw) && i < 12; i++ {
		n = n*16 + uint64(hexVal(raw[i]))
	}
	return "GA1.2." + strconv.FormatUint(100000000+n%900000000, 10) + ".1646092800"
}

func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return 0
	}
}

// runScripts interprets the page's directives in document order.
func (b *Browser) runScripts(p *Page) {
	host := p.URL.Hostname()
	sp := b.tel.StartSpan("browser", "scripts").Attr("host", host)
	ran := 0
	fpCtx := storage.Context{FrameHost: host, TopHost: host}
	for _, s := range p.Doc.ElementsByTag("script") {
		if s.AttrOr("data-cc", "") != "" {
			ran++
		}
		switch s.AttrOr("data-cc", "") {
		case "uid-sync":
			b.scriptUIDSync(p, s, fpCtx)
		case "link-decorator":
			b.scriptLinkDecorator(p, s, fpCtx)
		case "collector":
			b.scriptCollector(p, s, fpCtx)
		case "beacon":
			b.scriptBeacon(p, s, "")
		case "referrer-decorator":
			b.scriptReferrerDecorator(p, s)
		case "cookie-sync":
			b.scriptCookieSync(p, s)
		case "local-token":
			b.scriptLocalToken(p, s, fpCtx)
		}
	}
	b.cScripts.Add(int64(ran))
	sp.Attr("scripts", strconv.Itoa(ran)).End()
}

// ensureUIDCookie returns the tracker's first-party UID on this page,
// creating the cookie if needed, honouring an existing value (so a UID
// smuggled in earlier and stored by a collector wins, exactly as real
// tracker snippets prefer the stored ID).
func (b *Browser) ensureUIDCookie(p *Page, ctx storage.Context, cookieName, tracker, format string, fingerprint bool, ttlDays int) string {
	now := b.clock.Now()
	if cookieName != "" {
		if c, ok := b.store.Cookie(ctx, cookieName, now); ok {
			return c.Value
		}
	}
	v := formatUID(format, b.trackerUID(tracker, p.URL.Hostname(), fingerprint))
	if cookieName != "" {
		c := storage.Cookie{Name: cookieName, Value: v, Created: now}
		if ttlDays > 0 {
			c.Expires = now.Add(time.Duration(ttlDays) * 24 * time.Hour)
		}
		b.store.SetCookie(ctx, c)
	}
	return v
}

func (b *Browser) scriptUIDSync(p *Page, s *dom.Node, ctx storage.Context) {
	tracker := s.AttrOr("data-tracker", "")
	if tracker == "" {
		return
	}
	ttl := atoiOr(s.AttrOr("data-ttl-days", ""), 390)
	fp := s.AttrOr("data-fingerprint", "") == "1"
	cookie := s.AttrOr("data-cookie", "_uid_"+sanitize(tracker))
	v := b.ensureUIDCookie(p, ctx, cookie, tracker, s.AttrOr("data-uid-format", ""), fp, ttl)
	switch s.AttrOr("data-storage", "cookie") {
	case "local", "both":
		b.store.SetLocal(ctx, cookie, v)
	}
	if ep := s.AttrOr("data-beacon", ""); ep != "" {
		b.fireBeacon(p, ep, queryParam{"uid", v})
	}
}

func (b *Browser) scriptLinkDecorator(p *Page, s *dom.Node, ctx storage.Context) {
	tracker := s.AttrOr("data-tracker", "")
	param := s.AttrOr("data-param", "")
	if tracker == "" || param == "" {
		return
	}
	fp := s.AttrOr("data-fingerprint", "") == "1"
	cookie := s.AttrOr("data-cookie", "")
	v := b.ensureUIDCookie(p, ctx, cookie, tracker, s.AttrOr("data-uid-format", ""), fp,
		atoiOr(s.AttrOr("data-ttl-days", ""), 390))
	scope := scopeCrossDomain
	if s.AttrOr("data-scope", "") == "all" {
		scope = scopeAll
	}
	p.decorators = append(p.decorators, linkDecorator{
		param:      param,
		value:      v,
		scope:      scope,
		matchClass: s.AttrOr("data-match-class", ""),
	})
}

func (b *Browser) scriptCollector(p *Page, s *dom.Node, ctx storage.Context) {
	tracker := s.AttrOr("data-tracker", "")
	params := splitList(s.AttrOr("data-params", ""))
	if len(params) == 0 {
		return
	}
	prefix := s.AttrOr("data-cookie-prefix", "_cc_")
	ttl := atoiOr(s.AttrOr("data-ttl-days", ""), 390)
	q := p.URL.Query()
	now := b.clock.Now()
	var buf [8]queryParam
	collected := buf[:0]
	for _, name := range params {
		v := q.Get(name)
		if v == "" {
			continue
		}
		b.store.SetCookie(ctx, storage.Cookie{
			Name:    prefix + name,
			Value:   v,
			Created: now,
			Expires: now.Add(time.Duration(ttl) * 24 * time.Hour),
		})
		collected = append(collected, queryParam{name, v})
	}
	if ep := s.AttrOr("data-beacon", ""); ep != "" && len(collected) > 0 {
		if tracker != "" {
			collected = append(collected, queryParam{"tuid", b.trackerUID(tracker, p.URL.Hostname(), false)})
		}
		b.fireBeacon(p, ep, collected...)
	}
}

func (b *Browser) scriptBeacon(p *Page, s *dom.Node, _ string) {
	ep := s.AttrOr("data-endpoint", "")
	if ep == "" {
		return
	}
	var buf [2]queryParam
	params := buf[:0]
	if s.AttrOr("data-include-url", "") == "1" {
		params = append(params, queryParam{"url", p.urlStr})
	}
	if uidParam := s.AttrOr("data-uid-param", ""); uidParam != "" {
		tracker := s.AttrOr("data-tracker", "")
		if tracker != "" {
			params = append(params, queryParam{uidParam, b.trackerUID(tracker, p.URL.Hostname(), false)})
		}
	}
	b.fireBeacon(p, ep, params...)
}

func (b *Browser) scriptLocalToken(p *Page, s *dom.Node, ctx storage.Context) {
	key := s.AttrOr("data-key", "")
	if key == "" {
		return
	}
	tracker := s.AttrOr("data-tracker", p.URL.Hostname())
	var v string
	switch s.AttrOr("data-kind", "benign") {
	case "uid":
		v = b.trackerUID(tracker, p.URL.Hostname(), false)
	case "session":
		v = ident.SessionID(b.cfg.Seed, b.regDomain(p.URL.Hostname()), b.cfg.ClientID, strconv.Itoa(b.visitCount(p.URL.Hostname())))
	default:
		v = s.AttrOr("data-value", "enabled")
	}
	b.store.SetLocal(ctx, key, v)
}

// scriptReferrerDecorator registers a referrer decoration: the tracker's
// UID rides the Referer header of outgoing navigations (via
// history.replaceState tricks in the real world), not the target URL.
func (b *Browser) scriptReferrerDecorator(p *Page, s *dom.Node) {
	tracker := s.AttrOr("data-tracker", "")
	param := s.AttrOr("data-param", "")
	if tracker == "" || param == "" {
		return
	}
	p.refererDecorators = append(p.refererDecorators, linkDecorator{
		param: param,
		value: b.trackerUID(tracker, p.URL.Hostname(), false),
	})
}

// scriptCookieSync shares the tracker's UID with a partner tracker's sync
// endpoint. The partner stores it in its own (partitioned) bucket: the two
// third parties on this page now agree on the user — but only within this
// top-level site, which is exactly why cookie syncing is not UID smuggling
// (§2, §8.2).
func (b *Browser) scriptCookieSync(p *Page, s *dom.Node) {
	tracker := s.AttrOr("data-tracker", "")
	ep := s.AttrOr("data-endpoint", "")
	if tracker == "" || ep == "" {
		return
	}
	v := b.trackerUID(tracker, p.URL.Hostname(), false)
	b.fireBeacon(p, ep, queryParam{"puid", v}, queryParam{"from", tracker})
}

// fireBeacon sends a third-party GET to endpoint with params merged into
// its query the way url.Values.Set merges them: a param replaces any
// earlier value of its name, and a later param wins over an earlier one
// of the same name. The query is encoded with sorted names
// (encodeQueryStable); an endpoint without a query of its own, the
// common case, is encoded straight from params. fireBeacon may reorder
// params. Beacon cookie access is third-party under the page.
func (b *Browser) fireBeacon(p *Page, endpoint string, params ...queryParam) {
	u := resolveHref(p.URL, endpoint)
	if u == nil {
		return
	}
	if u.RawQuery == "" {
		u.RawQuery = encodeParamsStable(params)
	} else {
		q := u.Query()
		for _, kv := range params {
			q.Set(kv.name, kv.value)
		}
		u.RawQuery = encodeQueryStable(q)
	}
	ctx := storage.Context{FrameHost: u.Hostname(), TopHost: p.URL.Hostname()}
	resp, err := b.fetchCtx(u, u.String(), p.urlStr, KindBeacon, ctx)
	if err != nil {
		return
	}
	b.cBeacons.Inc()
	resp.Body.Close()
}

// visitCount increments and returns the per-(client, domain) visit
// counter used for client-side session tokens. Each crawler is a single
// goroutine, so this needs no lock beyond the struct's own.
func (b *Browser) visitCount(host string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.visits == nil {
		b.visits = make(map[string]int)
	}
	k := b.regDomain(host)
	b.visits[k]++
	return b.visits[k]
}

func atoiOr(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func sanitize(domain string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(domain)
}
