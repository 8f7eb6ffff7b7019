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
//
// A page owns the pooled documents its tree and its frames' trees live
// in (dom.Document), and Release gives them back. Release ends the page:
// neither a released page nor any *dom.Node reached from it may be used
// again. Strings read from it (URLs, attribute values, Clickable and
// Hop fields) stay valid. A page nobody releases is simply collected.
type Page struct {
	URL   *url.URL
	Doc   *dom.Node
	Chain []Hop

	// urlStr is URL.String(), printed once when the last hop was
	// fetched.
	urlStr string

	// doc holds Doc's blocks.
	doc *dom.Document

	// frames are the loaded subdocuments of the page's iframe elements,
	// in document order.
	frames []*Frame

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
	// doc holds Doc's blocks; nil when the frame did not load.
	doc *dom.Document
}

// Release returns the page's documents, its own and its frames', to the
// dom pool (see the type's doc). It may be called on a nil or an already
// released page.
func (p *Page) Release() {
	if p == nil || p.doc == nil {
		return
	}
	for _, f := range p.frames {
		if f.doc != nil {
			f.doc.Release()
			f.doc, f.Doc = nil, nil
		}
	}
	p.doc.Release()
	p.doc, p.Doc, p.frames = nil, nil, nil
	p.clickables, p.clickablesDone = nil, false
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

	// class is an anchor's class attribute, which link decorators
	// match on.
	class string
	// target is an anchor's href resolved against the page URL, once,
	// when the clickables are enumerated (nil for iframes). It is shared
	// by every copy of the Clickable, so it is never handed out.
	target *url.URL
	// frame is an iframe's loaded subdocument (nil for anchors).
	frame *Frame
}

// Clickables enumerates the page's candidate elements in document order.
// The result is memoized on the page (which is immutable after load);
// callers must not modify the returned slice. A Clickable holds no
// *dom.Node, and its Kind is a constant rather than the element's tag,
// but its Href and AttrNames are substrings of the page body.
func (b *Browser) Clickables(p *Page) []Clickable {
	if p.clickablesDone {
		return p.clickables
	}
	nodes := p.Doc.FindAll(func(e *dom.Node) bool { return e.Tag == "a" || e.Tag == "iframe" })
	out := make([]Clickable, 0, len(nodes))
	frames := p.frames // iframes in document order, as nodes lists them
	for _, n := range nodes {
		var c Clickable
		if n.Tag == "iframe" {
			c.Kind, c.frame, frames = "iframe", frames[0], frames[1:]
		} else {
			c.Kind, c.class = "a", n.AttrOr("class", "")
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
		return b.decorate(p, c.class, &target), nil
	}
	frame := c.frame
	if frame.Doc == nil {
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
// target of an anchor with the given class attribute, returning a
// decorated copy (the original URL is not modified).
func (b *Browser) decorate(p *Page, class string, target *url.URL) *url.URL {
	if len(p.decorators) == 0 {
		return target
	}
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
	iframes := p.Doc.ElementsByTag("iframe")
	p.frames = make([]*Frame, len(iframes))
	for i, n := range iframes {
		p.frames[i] = b.loadFrame(p, n.AttrOr("src", ""))
	}
}

// loadFrame fetches one iframe's document from src.
func (b *Browser) loadFrame(p *Page, src string) *Frame {
	u := resolveHref(p.URL, src)
	if u == nil {
		return &Frame{SrcURL: src, Err: "bad src"}
	}
	us := u.String()
	ctx := storage.Context{FrameHost: u.Hostname(), TopHost: p.URL.Hostname()}
	resp, err := b.fetchCtx(u, us, p.urlStr, KindSubframe, ctx)
	if err != nil {
		return &Frame{SrcURL: us, Err: err.Error(), src: u}
	}
	body, err := netsim.ReadBody(resp)
	if err != nil {
		return &Frame{SrcURL: us, Err: err.Error(), src: u}
	}
	b.cIframes.Inc()
	doc := dom.ParseDocument(body)
	return &Frame{SrcURL: us, Doc: doc.Root(), src: u, doc: doc}
}
