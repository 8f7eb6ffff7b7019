package browser

import (
	"fmt"
	"net/url"
	"slices"
	"strings"

	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/storage"
)

// Page is a loaded top-level document plus the iframes it embeds and the
// navigation chain that produced it. A page is immutable after load, so
// facts derived from it — its URL string, its clickables — are computed
// once and kept.
type Page struct {
	URL   *url.URL
	Doc   *dom.Node
	Chain []Hop

	// urlStr is URL.String(), printed once when the last hop was
	// fetched.
	urlStr string

	// Frames maps iframe elements (by identity) to their loaded
	// subdocuments.
	Frames map[*dom.Node]*Frame

	// decorators are the click-time link decorators registered by this
	// page's scripts.
	decorators []linkDecorator
	// refererDecorators decorate the Referer header of outgoing
	// navigations rather than their URLs (the §6 limitation).
	refererDecorators []linkDecorator

	// clickables memoizes Clickables: the document never changes after
	// load, and ClickURL re-enumerates for every click, so computing
	// attribute names and x-paths twice per step was pure overhead.
	clickables     []Clickable
	clickablesDone bool
}

// Frame is a loaded iframe document.
type Frame struct {
	SrcURL string
	Doc    *dom.Node
	Err    string

	// src is SrcURL parsed; nil when the src did not resolve.
	src *url.URL
}

// FinalHost returns the host of the page URL.
func (p *Page) FinalHost() string { return p.URL.Hostname() }

// URLString returns the page URL's string form, URL.String().
func (p *Page) URLString() string { return p.urlStr }

// Clickable describes one element the crawler may click — an anchor or an
// iframe — together with the identification signals the central controller
// compares (§3.3): href (anchors), attribute names, bounding box and
// x-path.
type Clickable struct {
	// Index is the element's position in the page's clickable list; the
	// controller's chosen index is clicked on every crawler.
	Index int
	// Kind is "a" or "iframe".
	Kind string
	// Href is the anchor target (empty for iframes, whose destination is
	// opaque until clicked — the paper's motivating difficulty).
	Href string
	// HrefKey is Href parsed with its query and fragment cleared, then
	// printed: the comparison form of the controller's matching
	// heuristic 1 (empty for iframes).
	HrefKey string
	// AttrNames are the element's attribute names in document order.
	AttrNames []string
	// Box is the layout bounding box.
	Box dom.Rect
	// XPath is the positional x-path.
	XPath string

	node *dom.Node
	// target is an anchor's href resolved against the page URL, once,
	// when the clickables are enumerated (nil for iframes). It is shared
	// by every copy of the Clickable, so it is never handed out.
	target *url.URL
}

// Clickables enumerates the page's candidate elements in document order.
// The result is memoized on the page (which is immutable after load);
// callers must not modify the returned slice.
func (b *Browser) Clickables(p *Page) []Clickable {
	if p.clickablesDone {
		return p.clickables
	}
	nodes := p.Doc.FindAll(func(e *dom.Node) bool { return e.Tag == "a" || e.Tag == "iframe" })
	out := make([]Clickable, 0, len(nodes))
	for _, n := range nodes {
		c := Clickable{Kind: n.Tag, node: n}
		if n.Tag == "a" {
			c.Href = n.AttrOr("href", "")
			// One parse of the href yields both the resolved target
			// (what p.URL.Parse(href) computes) and the heuristic-1 key.
			if strings.TrimSpace(c.Href) == "" {
				continue
			}
			ref, err := url.Parse(c.Href)
			if err != nil {
				continue
			}
			if c.target = p.URL.ResolveReference(ref); !isHTTP(c.target) {
				continue
			}
			ref.RawQuery, ref.Fragment = "", ""
			c.HrefKey = ref.String()
		}
		c.Index, c.AttrNames, c.Box, c.XPath = len(out), n.AttrNames(), n.Box, n.XPath()
		out = append(out, c)
	}
	p.clickables, p.clickablesDone = out, true
	return out
}

// CrossDomain reports whether the clickable is known to navigate off the
// current registered domain. Iframes report false: their destination is
// unknown before the click, but the crawler still prefers them (ads live
// in iframes).
func (b *Browser) CrossDomain(p *Page, c Clickable) bool {
	return c.target != nil && !b.sameSite(p.URL, c.target)
}

// ErrNoTarget is returned by Click when the element cannot trigger a
// navigation (e.g. an iframe whose ad failed to load).
type ErrNoTarget struct{ Reason string }

func (e *ErrNoTarget) Error() string { return "browser: click has no target: " + e.Reason }

// ClickURL computes the URL a click on clickable index would navigate to,
// applying link decoration for anchors, without performing the
// navigation. Iframe clicks resolve to the frame document's first anchor —
// the ad's click-through link.
func (b *Browser) ClickURL(p *Page, index int) (*url.URL, error) {
	cs := b.Clickables(p)
	if index < 0 || index >= len(cs) {
		return nil, &ErrNoTarget{Reason: fmt.Sprintf("index %d out of range (%d clickables)", index, len(cs))}
	}
	c := cs[index]
	if c.Kind == "a" {
		target := *c.target // a fresh copy: callers may modify the result
		return b.decorate(p, c.node, &target), nil
	}
	frame := p.Frames[c.node]
	if frame == nil || frame.Doc == nil {
		return nil, &ErrNoTarget{Reason: "iframe not loaded"}
	}
	anchors := frame.Doc.ElementsByTag("a")
	if len(anchors) == 0 {
		return nil, &ErrNoTarget{Reason: "iframe has no link"}
	}
	target := resolveHref(frame.src, anchors[0].AttrOr("href", ""))
	if target == nil {
		return nil, &ErrNoTarget{Reason: "unresolvable ad href"}
	}
	// Ad click URLs are fully formed by the ad server; page decorators do
	// not touch content inside cross-origin frames.
	return target, nil
}

// Click clicks the element and performs the resulting navigation,
// returning the destination page.
func (b *Browser) Click(p *Page, index int) (*Page, error) {
	target, err := b.ClickURL(p, index)
	if err != nil {
		return nil, err
	}
	return b.navigateURL(target, b.outgoingReferer(p))
}

// outgoingReferer computes the Referer for navigations leaving p,
// applying any referrer decorators.
func (b *Browser) outgoingReferer(p *Page) string {
	if len(p.refererDecorators) == 0 {
		return p.urlStr
	}
	ref := *p.URL
	q := ref.Query()
	changed := false
	for _, d := range p.refererDecorators {
		q.Set(d.param, d.value)
		changed = true
	}
	if changed {
		ref.RawQuery = encodeQueryStable(q)
	}
	return ref.String()
}

// decorate applies the page's registered link decorators to a navigation
// target, returning a decorated copy (the original URL is not modified).
func (b *Browser) decorate(p *Page, anchor *dom.Node, target *url.URL) *url.URL {
	if len(p.decorators) == 0 {
		return target
	}
	class := anchor.AttrOr("class", "")
	out := *target
	q := out.Query()
	changed := false
	for _, d := range p.decorators {
		if d.scope == scopeCrossDomain && b.sameSite(p.URL, target) {
			continue
		}
		if d.matchClass != "" && !hasClass(class, d.matchClass) {
			continue
		}
		q.Set(d.param, d.value)
		changed = true
	}
	if changed {
		out.RawQuery = encodeQueryStable(q)
	}
	return &out
}

// hasClass reports whether the space-separated class list contains token.
func hasClass(classAttr, token string) bool {
	for _, c := range strings.Fields(classAttr) {
		if c == token {
			return true
		}
	}
	return false
}

// encodeQueryStable encodes query values with sorted keys so decorated
// URLs are byte-stable.
func encodeQueryStable(q url.Values) string {
	keys := make([]string, 0, len(q))
	n := 0
	for k, vs := range q {
		keys = append(keys, k)
		for _, v := range vs {
			n += queryEscapedLen(k) + queryEscapedLen(v) + 2
		}
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(n)
	for _, k := range keys {
		for _, v := range q[k] {
			writeQueryPair(&b, k, v)
		}
	}
	return b.String()
}

// queryParam is one name/value pair of a query a beacon sends.
type queryParam struct{ name, value string }

// encodeParamsStable encodes params as encodeQueryStable encodes the
// url.Values that Set-ting each param in order builds: sorted by name,
// the last value of a repeated name kept. It sorts params in place.
func encodeParamsStable(params []queryParam) string {
	slices.SortStableFunc(params, func(a, b queryParam) int { return strings.Compare(a.name, b.name) })
	n := 0
	for _, kv := range params {
		n += queryEscapedLen(kv.name) + queryEscapedLen(kv.value) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for i, kv := range params {
		if i+1 < len(params) && params[i+1].name == kv.name {
			continue // a later Set of the name replaced this value
		}
		writeQueryPair(&b, kv.name, kv.value)
	}
	return b.String()
}

// writeQueryPair appends "name=value", query-escaped, to b, preceded by
// '&' unless b is empty.
func writeQueryPair(b *strings.Builder, name, value string) {
	if b.Len() > 0 {
		b.WriteByte('&')
	}
	b.WriteString(url.QueryEscape(name))
	b.WriteByte('=')
	b.WriteString(url.QueryEscape(value))
}

// queryEscapedLen returns len(url.QueryEscape(s)): a space becomes '+',
// ASCII letters, digits and "-_.~" stay, and every other byte becomes a
// three-byte %XX escape.
func queryEscapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == '~', c == ' ':
		default:
			n += 2
		}
	}
	return n
}

// loadFrames fetches every iframe's document. Iframe loads are sub_frame
// requests: the Referer is the embedding page, and cookie access is
// third-party (partitioned or blocked per policy) unless the frame is
// same-site.
func (b *Browser) loadFrames(p *Page) {
	p.Frames = make(map[*dom.Node]*Frame)
	for _, n := range p.Doc.ElementsByTag("iframe") {
		src := n.AttrOr("src", "")
		u := resolveHref(p.URL, src)
		if u == nil {
			p.Frames[n] = &Frame{SrcURL: src, Err: "bad src"}
			continue
		}
		us := u.String()
		ctx := storage.Context{FrameHost: u.Hostname(), TopHost: p.URL.Hostname()}
		resp, err := b.fetchCtx(u, us, p.urlStr, KindSubframe, ctx)
		if err != nil {
			p.Frames[n] = &Frame{SrcURL: us, Err: err.Error(), src: u}
			continue
		}
		body, err := netsim.ReadBody(resp)
		if err != nil {
			p.Frames[n] = &Frame{SrcURL: us, Err: err.Error(), src: u}
			continue
		}
		p.Frames[n] = &Frame{SrcURL: us, Doc: dom.Parse(body), src: u}
		b.cIframes.Inc()
	}
}
