// Package browser implements the simulated browser CrumbCruncher drives:
// the substitute for the paper's Chrome-under-Puppeteer. It provides the
// narrow surface the measurement needs — navigate and follow redirect
// chains hop by hop, parse pages, load iframes, execute on-page tracker
// scripts, read/write cookies and localStorage under a third-party policy,
// spoof the User-Agent, and record every web request the way the paper's
// extension does.
//
// Tracker behaviour is *data*, not browser code: pages carry declarative
// <script data-cc="..."> directives (see scripts.go) that this engine
// interprets, the same way a real browser executes whatever JavaScript a
// page ships. Server-side tracker behaviour (redirectors, ad servers)
// lives in the web package's HTTP handlers; the two halves communicate
// exclusively through real HTTP requests, cookies and URLs.
package browser

import (
	"fmt"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/storage"
	"crumbcruncher/internal/telemetry"
)

// Simulation identity headers, re-exported from ident for convenience.
// Handlers use them only to seed deterministic identifier derivation; see
// the web package.
const (
	// HeaderProfile carries the simulated user identity (a user data
	// directory in the paper's terms).
	HeaderProfile = ident.HeaderProfile
	// HeaderClient carries the crawler instance identity; Safari-1 and
	// Safari-1R share a profile but have distinct clients, which is what
	// makes server-issued session IDs differ between them.
	HeaderClient = ident.HeaderClient
	// HeaderMachine carries the machine fingerprint surface (User-Agent,
	// fonts, codecs...); fingerprinting trackers derive UIDs from it.
	HeaderMachine = ident.HeaderMachine
)

// DefaultSafariUA is the Safari User-Agent string the paper spoofs
// (§3.4, footnote 3).
const DefaultSafariUA = "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/14.1.2 Safari/605.1.15"

// DefaultChromeUA is a Chrome 95 User-Agent, the real browser under the
// hood of all four crawlers.
const DefaultChromeUA = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/95.0.4638.69 Safari/537.36"

// Config configures a Browser.
type Config struct {
	// Seed is the world seed; client-side tracker scripts derive UIDs
	// from it exactly as the server-side handlers do.
	Seed int64
	// ProfileID identifies the simulated user.
	ProfileID string
	// ClientID identifies the crawler instance.
	ClientID string
	// Machine identifies the crawl machine (fingerprint surface).
	Machine string
	// UserAgent is sent on every request.
	UserAgent string
	// Policy is the third-party storage policy.
	Policy storage.Policy
	// Network is the virtual network to talk to.
	Network *netsim.Network
	// Clock is the virtual clock the browser's requests advance and its
	// cookies are stamped from. A crawl shares one per walk among the
	// walk's four browsers; nil gives the browser a fresh clock.
	Clock *netsim.VirtualClock
	// MaxRedirects bounds navigation chains; 0 means the default (20).
	MaxRedirects int
	// ViewportWidth is used for layout; 0 means 1280.
	ViewportWidth int
	// Telemetry, when non-nil, receives page-load spans and browser
	// counters (navigations, redirect-chain lengths, scripts run,
	// iframes loaded, beacons fired). Observation only: a nil value
	// costs nothing.
	Telemetry *telemetry.Telemetry
}

// Browser is one simulated browser with its own profile storage. It is
// used by a single crawler goroutine; the request log is nevertheless
// mutex-guarded so tests may inspect it concurrently.
//
// Every fetch reuses one http.Request, with its URL, header map and
// header values, for the browser's whole life: a request is live only
// until Network.Do returns, so a handler or observer on the network must
// not keep the request, its URL or its header past its return (strings
// read from them are safe to keep), and the Request of a returned
// response must not be read.
type Browser struct {
	cfg   Config
	store *storage.Store
	clock *netsim.VirtualClock
	psl   *publicsuffix.List

	mu       sync.Mutex
	requests []RequestRecord
	visits   map[string]int // per-registered-domain visit counters

	// attempt is the retry layer's current attempt index; it rides on
	// every request as netsim.HeaderAttempt so transient fault episodes
	// can recover deterministically per (domain, attempt). The browser
	// is single-goroutine, so no lock is needed.
	attempt int

	// The request every fetch reuses (see the type's doc): its URL, the
	// header values its one-element header slices point into, and the
	// buffer the Cookie header is built in.
	req       http.Request
	reqURL    url.URL
	reqVals   [7]string
	cookieBuf []byte

	// Cached telemetry instruments (all nil-safe no-ops when
	// cfg.Telemetry is nil).
	tel        *telemetry.Telemetry
	cNavs      *telemetry.Counter
	cScripts   *telemetry.Counter
	cIframes   *telemetry.Counter
	cBeacons   *telemetry.Counter
	hChainHops *telemetry.Histogram
}

// New returns a Browser for cfg. Network must be non-nil.
func New(cfg Config) *Browser {
	if cfg.Network == nil {
		panic("browser: Config.Network is required")
	}
	if cfg.MaxRedirects <= 0 {
		cfg.MaxRedirects = 20
	}
	if cfg.ViewportWidth <= 0 {
		cfg.ViewportWidth = 1280
	}
	if cfg.UserAgent == "" {
		cfg.UserAgent = DefaultChromeUA
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.NewVirtualClock()
	}
	reg := cfg.Telemetry.Registry()
	return &Browser{
		cfg:        cfg,
		store:      storage.New(cfg.Policy),
		clock:      cfg.Clock,
		psl:        publicsuffix.Default(),
		req:        http.Request{Header: make(http.Header, 8)},
		tel:        cfg.Telemetry,
		cNavs:      reg.Counter("browser.navigations"),
		cScripts:   reg.Counter("browser.scripts_run"),
		cIframes:   reg.Counter("browser.iframes_loaded"),
		cBeacons:   reg.Counter("browser.beacons_fired"),
		hChainHops: reg.Histogram("browser.redirect_chain_hops"),
	}
}

// SetAttempt sets the retry attempt index stamped on subsequent requests
// (0: first try, header omitted). The crawler's retry loop calls it
// before each attempt and resets it to 0 afterwards.
func (b *Browser) SetAttempt(n int) { b.attempt = n }

// Store exposes the profile's storage (tests and countermeasures).
func (b *Browser) Store() *storage.Store { return b.store }

// ProfileID returns the simulated user identity.
func (b *Browser) ProfileID() string { return b.cfg.ProfileID }

// ClientID returns the crawler instance identity.
func (b *Browser) ClientID() string { return b.cfg.ClientID }

// Requests returns a copy of the request log.
func (b *Browser) Requests() []RequestRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]RequestRecord, len(b.requests))
	copy(out, b.requests)
	return out
}

// ResetRequests clears the request log (called at crawl-step
// boundaries). The log keeps its backing array for the next step:
// Requests hands out copies, so no caller holds the old records.
func (b *Browser) ResetRequests() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.requests = b.requests[:0]
}

func (b *Browser) record(r RequestRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.requests = append(b.requests, r)
}

// NavError reports a failed navigation, wrapping the transport error and
// retaining the chain walked so far.
type NavError struct {
	URL   string
	Chain []Hop
	Err   error
}

func (e *NavError) Error() string { return fmt.Sprintf("browser: navigate %s: %v", e.URL, e.Err) }

// Unwrap supports errors.Is/As against the transport error.
func (e *NavError) Unwrap() error { return e.Err }

// Navigate performs a top-level navigation to rawURL, following the
// redirect chain hop by hop. Every hop is recorded as a navigation
// request; each hop's host acts as a first party (the redirector
// privilege at the heart of UID smuggling): its cookies are attached, and
// its Set-Cookie responses are stored first-party. On success the final
// page is parsed, laid out, its declarative scripts run, its iframes
// loaded and its beacons fired.
func (b *Browser) Navigate(rawURL, referer string) (*Page, error) {
	sp := b.tel.StartSpan("browser", "navigate").Attr("url", rawURL)
	b.cNavs.Inc()
	cur, err := url.Parse(rawURL)
	if err != nil {
		return b.endNavigate(sp, nil, &NavError{URL: rawURL, Err: err})
	}
	page, err := b.navigate(cur, cur.String(), referer)
	return b.endNavigate(sp, page, err)
}

// navigateURL is Navigate to an already parsed URL, which it does not
// modify.
func (b *Browser) navigateURL(u *url.URL, referer string) (*Page, error) {
	s := u.String()
	sp := b.tel.StartSpan("browser", "navigate").Attr("url", s)
	b.cNavs.Inc()
	page, err := b.navigate(u, s, referer)
	return b.endNavigate(sp, page, err)
}

// endNavigate closes a navigation's span.
func (b *Browser) endNavigate(sp *telemetry.Active, page *Page, err error) (*Page, error) {
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	b.hChainHops.Observe(int64(len(page.Chain)))
	sp.Attr("host", page.URL.Hostname()).End()
	return page, nil
}

// navigate follows the redirect chain from cur, whose string form is
// curStr. Each hop's URL is printed once and shared by its Hop, its
// request record and, for the last hop, the Page.
func (b *Browser) navigate(cur *url.URL, curStr, referer string) (*Page, error) {
	var chain []Hop
	for hop := 0; hop <= b.cfg.MaxRedirects; hop++ {
		resp, err := b.fetch(cur, curStr, referer, KindNavigation)
		if err != nil {
			chain = append(chain, Hop{URL: curStr})
			return nil, &NavError{URL: curStr, Chain: chain, Err: err}
		}
		h := Hop{URL: curStr, Status: resp.StatusCode, Location: resp.Header.Get("Location")}
		chain = append(chain, h)
		if isRedirect(resp.StatusCode) && h.Location != "" {
			netsim.ReadBody(resp) // drain
			next, err := cur.Parse(h.Location)
			if err != nil {
				return nil, &NavError{URL: curStr, Chain: chain, Err: err}
			}
			cur, curStr = next, next.String()
			continue
		}
		body, err := netsim.ReadBody(resp)
		if err != nil {
			return nil, &NavError{URL: curStr, Chain: chain, Err: err}
		}
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			// Degraded response: surface it as an error carrying the
			// Retry-After hint so the retry layer can classify and pace.
			he := &resilience.HTTPError{Status: resp.StatusCode, URL: curStr}
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				he.RetryAfter = time.Duration(s) * time.Second
			}
			return nil, &NavError{URL: curStr, Chain: chain, Err: he}
		}
		page := &Page{
			URL:    cur,
			urlStr: curStr,
			Doc:    dom.Parse(body),
			Chain:  chain,
		}
		dom.Layout(page.Doc, b.cfg.ViewportWidth)
		b.runScripts(page)
		b.loadFrames(page)
		return page, nil
	}
	return nil, &NavError{URL: curStr, Chain: chain, Err: fmt.Errorf("too many redirects (%d)", b.cfg.MaxRedirects)}
}

// fetch issues one request with the browser's identity headers and the
// cookies visible to (target-as-frame, top). For top-level navigations the
// target is its own top. Set-Cookie headers on the response are stored
// under the same context. rawURL is u.String(), which the caller has
// already printed.
func (b *Browser) fetch(u *url.URL, rawURL, referer string, kind RequestKind) (*http.Response, error) {
	host := u.Hostname()
	return b.fetchCtx(u, rawURL, referer, kind, storage.Context{FrameHost: host, TopHost: host})
}

// Canonical forms of the request headers fetchCtx sets directly.
var (
	hdrCookie    = textproto.CanonicalMIMEHeaderKey("Cookie")
	hdrUserAgent = textproto.CanonicalMIMEHeaderKey("User-Agent")
	hdrProfile   = textproto.CanonicalMIMEHeaderKey(HeaderProfile)
	hdrClient    = textproto.CanonicalMIMEHeaderKey(HeaderClient)
	hdrMachine   = textproto.CanonicalMIMEHeaderKey(HeaderMachine)
	hdrAttempt   = textproto.CanonicalMIMEHeaderKey(netsim.HeaderAttempt)
	hdrReferer   = textproto.CanonicalMIMEHeaderKey("Referer")
)

// fetchCtx is fetch with an explicit storage context (used for iframe and
// beacon subrequests, whose cookie access is third-party).
func (b *Browser) fetchCtx(u *url.URL, rawURL, referer string, kind RequestKind, ctx storage.Context) (*http.Response, error) {
	// Build the request directly: http.NewRequest would re-parse the URL
	// string we already hold parsed. The request, its URL and header map
	// are the browser's own, reused by every fetch and reset here whole,
	// so nothing a previous fetch or its handler left on them survives.
	// The URL is copied so neither handlers nor the transport can alias
	// the caller's value.
	b.reqURL = *u
	h := b.req.Header
	clear(h)
	b.req = http.Request{Method: http.MethodGet, URL: &b.reqURL, Header: h, Host: u.Host}
	req := &b.req
	// The header values' one-element slices point into one array rather
	// than a Header.Set allocation each; a full slice expression caps
	// each at its own element, so an Add appends into a fresh array.
	vals := &b.reqVals
	*vals = [...]string{b.cfg.UserAgent, b.cfg.ProfileID, b.cfg.ClientID, b.cfg.Machine, strconv.Itoa(b.attempt), referer, ""}
	h[hdrUserAgent] = vals[0:1:1]
	h[hdrProfile] = vals[1:2:2]
	h[hdrClient] = vals[2:3:3]
	h[hdrMachine] = vals[3:4:4]
	if b.attempt > 0 {
		h[hdrAttempt] = vals[4:5:5]
	}
	if referer != "" {
		h[hdrReferer] = vals[5:6:6]
	}
	now := b.clock.Now()
	if cs := b.store.Cookies(ctx, now); len(cs) > 0 {
		b.cookieBuf = appendCookieHeader(b.cookieBuf[:0], cs)
		vals[6] = string(b.cookieBuf)
		h[hdrCookie] = vals[6:7:7]
	}

	// The network is the transport itself: an http.Client would clone
	// the headers per request and, for every 3xx, build a follow-up
	// request only to discard it (the browser walks redirect chains
	// hop by hop). Errors are wrapped exactly as http.Client wraps them,
	// so the recorded error strings are the client's.
	resp, err := b.cfg.Network.Do(req, b.clock)
	rec := RequestRecord{URL: rawURL, Kind: kind, Referer: referer, Attempt: b.attempt, Time: now}
	if err != nil {
		err = &url.Error{Op: "Get", URL: rec.URL, Err: err}
		rec.Err = err.Error()
		b.record(rec)
		return nil, err
	}
	rec.Status = resp.StatusCode
	b.record(rec)
	b.storeSetCookies(resp, ctx)
	return resp, nil
}

// appendCookieHeader appends to dst the Cookie header value that one
// http.Request.AddCookie call per cookie, in order, would build:
// "name=value" pairs joined by "; ", each name with CR and LF replaced by
// '-', each value stripped of bytes outside RFC 6265's cookie-octet set
// (loosened to allow space and comma) and double-quoted when non-empty
// and holding a space or comma. AddCookie also logs each invalid byte it
// drops; this does not.
func appendCookieHeader(dst []byte, cs []storage.Cookie) []byte {
	for i, c := range cs {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		for j := 0; j < len(c.Name); j++ {
			ch := c.Name[j]
			if ch == '\r' || ch == '\n' {
				ch = '-'
			}
			dst = append(dst, ch)
		}
		dst = append(dst, '=')
		quote := false
		for j := 0; j < len(c.Value); j++ {
			if ch := c.Value[j]; ch == ' ' || ch == ',' {
				quote = true
				break
			}
		}
		if quote {
			dst = append(dst, '"')
		}
		for j := 0; j < len(c.Value); j++ {
			if ch := c.Value[j]; 0x20 <= ch && ch < 0x7f && ch != '"' && ch != ';' && ch != '\\' {
				dst = append(dst, ch)
			}
		}
		if quote {
			dst = append(dst, '"')
		}
	}
	return dst
}

// storeSetCookies applies a response's Set-Cookie headers to the store
// under ctx, converting Max-Age/Expires into absolute virtual-clock
// expiry.
func (b *Browser) storeSetCookies(resp *http.Response, ctx storage.Context) {
	now := b.clock.Now()
	for _, c := range resp.Cookies() {
		sc := storage.Cookie{Name: c.Name, Value: c.Value, Created: now}
		switch {
		case c.MaxAge > 0:
			sc.Expires = now.Add(time.Duration(c.MaxAge) * time.Second)
		case c.MaxAge < 0:
			continue // immediate deletion request: skip storing
		case !c.Expires.IsZero():
			sc.Expires = c.Expires
		}
		b.store.SetCookie(ctx, sc)
	}
}

func isRedirect(status int) bool {
	switch status {
	case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
		http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		return true
	}
	return false
}

// regDomain is a convenience wrapper.
func (b *Browser) regDomain(host string) string {
	if rd := b.psl.RegisteredDomain(host); rd != "" {
		return rd
	}
	return host
}

// sameSite reports whether two URLs share a registered domain.
func (b *Browser) sameSite(a, c *url.URL) bool {
	return b.psl.SameSite(a.Hostname(), c.Hostname())
}

// resolveHref resolves an element's href against the page URL, returning
// nil for unparsable or non-HTTP targets.
func resolveHref(page *url.URL, href string) *url.URL {
	if strings.TrimSpace(href) == "" {
		return nil
	}
	u, err := page.Parse(href)
	if err != nil || !isHTTP(u) {
		return nil
	}
	return u
}

// isHTTP reports whether u is an http or https URL.
func isHTTP(u *url.URL) bool { return u.Scheme == "http" || u.Scheme == "https" }
