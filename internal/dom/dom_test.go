package dom

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

const samplePage = `<!DOCTYPE html>
<html>
<head><title>Shop</title><meta charset="utf-8"></head>
<body>
<nav id="top"><a href="/home">Home</a><a href="/deals">Deals</a></nav>
<div class="content">
  <h1>Welcome</h1>
  <p>Some text with &amp; entity.</p>
  <a href="https://other.example/path?x=1" rel="sponsored">Ad link</a>
  <iframe src="https://ads.example/slot/1" width="300" height="250"></iframe>
</div>
<script>var x = 1 < 2;</script>
</body>
</html>`

// byID returns the first element in document order whose id attribute
// is id, or nil.
func byID(n *Node, id string) *Node {
	if m := n.FindAll(func(e *Node) bool { return e.AttrOr("id", "") == id }); len(m) > 0 {
		return m[0]
	}
	return nil
}

// innerText concatenates the text content beneath n.
func innerText(n *Node) string {
	var b strings.Builder
	var rec func(*Node)
	rec = func(m *Node) {
		if m.Type == TextNode {
			b.WriteString(m.Text)
		}
		for _, c := range m.Children {
			rec(c)
		}
	}
	rec(n)
	return b.String()
}

func TestParseBasicStructure(t *testing.T) {
	doc := Parse(samplePage)
	anchors := doc.ElementsByTag("a")
	if len(anchors) != 3 {
		t.Fatalf("anchors = %d, want 3", len(anchors))
	}
	iframes := doc.ElementsByTag("iframe")
	if len(iframes) != 1 {
		t.Fatalf("iframes = %d, want 1", len(iframes))
	}
	if got := iframes[0].AttrOr("src", ""); got != "https://ads.example/slot/1" {
		t.Fatalf("iframe src = %q", got)
	}
	if nav := byID(doc, "top"); nav == nil || nav.Tag != "nav" {
		t.Fatal("byID failed to find nav#top")
	}
}

func TestParseEntities(t *testing.T) {
	doc := Parse(`<p title="a&amp;b">x &lt; y</p>`)
	p := doc.ElementsByTag("p")[0]
	if v, _ := p.Attr("title"); v != "a&b" {
		t.Fatalf("attr entity: %q", v)
	}
	if got := strings.TrimSpace(innerText(p)); got != "x < y" {
		t.Fatalf("text entity: %q", got)
	}
}

func TestParseScriptRawText(t *testing.T) {
	doc := Parse(`<script>if (a < b && c > d) { go(); }</script><p>after</p>`)
	scripts := doc.ElementsByTag("script")
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	if !strings.Contains(innerText(scripts[0]), "a < b && c > d") {
		t.Fatalf("script body mangled: %q", innerText(scripts[0]))
	}
	if len(doc.ElementsByTag("p")) != 1 {
		t.Fatal("content after script lost")
	}
}

// TestParseRawTextCloser: the raw-text close tag is matched ASCII
// case-insensitively, and the element's text is sliced from the
// original bytes even when lower-casing would change their length.
func TestParseRawTextCloser(t *testing.T) {
	for _, tc := range []struct {
		name, html, tag, text string
		after                 bool // a <p> follows the raw-text element
	}{
		{"dotted capital I", "<script>İ</script><p>x</p>", "script", "İ", true},
		{"kelvin sign", "<script>K</script><p>x</p>", "script", "K", true},
		{"upper-case closer", "<script>a()</SCRIPT><p>x</p>", "script", "a()", true},
		{"mixed-case closer with space", "<style>p{}</Style ><p>x</p>", "style", "p{}", true},
		{"unterminated", "<script>var a = 1;", "script", "var a = 1;", false},
	} {
		doc := Parse(tc.html)
		els := doc.ElementsByTag(tc.tag)
		if len(els) != 1 || len(els[0].Children) != 1 {
			t.Fatalf("%s: want one %s with one text child, got %d elements", tc.name, tc.tag, len(els))
		}
		if got := els[0].Children[0].Text; got != tc.text {
			t.Errorf("%s: %s text = %q, want %q", tc.name, tc.tag, got, tc.text)
		}
		if got := len(doc.ElementsByTag("p")) == 1; got != tc.after {
			t.Errorf("%s: content after the %s parsed = %v, want %v", tc.name, tc.tag, got, tc.after)
		}
	}
}

func TestParseVoidAndSelfClosing(t *testing.T) {
	doc := Parse(`<div><img src="/a.png"><br/><input type="text"></div><p>sib</p>`)
	div := doc.ElementsByTag("div")[0]
	if len(div.ElementsByTag("img")) != 1 || len(div.ElementsByTag("input")) != 1 {
		t.Fatal("void elements not children of div")
	}
	// p must be a sibling of div, not nested inside img.
	p := doc.ElementsByTag("p")[0]
	if p.Parent.Tag != "#document" {
		t.Fatalf("p parent = %q", p.Parent.Tag)
	}
}

func TestParseToleratesMalformed(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<div",
		"</nothing>",
		"<div><span>unclosed",
		"<a href=>x</a>",
		"<a href='unterminated>x",
		"<!-- unterminated comment",
		"<p>text<p>more", // unclosed p elements
	}
	for _, c := range cases {
		doc := Parse(c) // must not panic
		if doc == nil {
			t.Fatalf("Parse(%q) returned nil", c)
		}
	}
}

func TestParseBooleanAttr(t *testing.T) {
	doc := Parse(`<input disabled type="text">`)
	in := doc.ElementsByTag("input")[0]
	if _, ok := in.Attr("disabled"); !ok {
		t.Fatal("boolean attribute lost")
	}
	if got := in.AttrNames(); len(got) != 2 || got[0] != "disabled" || got[1] != "type" {
		t.Fatalf("AttrNames = %v", got)
	}
}

// TestParseAttrsOwnBacking: attribute slices share one block per
// document, so each must have cap == len — appending to one element's
// Attrs must never overwrite its sibling's. Boolean attributes share the
// block with valued ones.
func TestParseAttrsOwnBacking(t *testing.T) {
	doc := Parse(`<div><a href="/1" class="x">a</a><a href="/2" id="y">b</a>` +
		`<input disabled checked readonly><input required autofocus></div>`)
	for _, el := range doc.FindAll(func(*Node) bool { return true }) {
		if cap(el.Attrs) != len(el.Attrs) {
			t.Fatalf("<%s> Attrs len %d cap %d", el.Tag, len(el.Attrs), cap(el.Attrs))
		}
	}
	anchors := doc.ElementsByTag("a")
	anchors[0].Attrs = append(anchors[0].Attrs, Attr{Name: "rel", Value: "nofollow"})
	if got := fmt.Sprint(anchors[1].Attrs); got != "[{href /2} {id y}]" {
		t.Fatalf("sibling attrs after append = %s", got)
	}
	inputs := doc.ElementsByTag("input")
	if got := fmt.Sprint(inputs[0].AttrNames(), inputs[1].AttrNames()); got != "[disabled checked readonly] [required autofocus]" {
		t.Fatalf("boolean attrs = %s", got)
	}
}

func TestXPath(t *testing.T) {
	doc := Parse(`<html><body><div><a href="1">x</a><span></span><a href="2">y</a></div></body></html>`)
	anchors := doc.ElementsByTag("a")
	if got := anchors[0].XPath(); got != "/html[1]/body[1]/div[1]/a[1]" {
		t.Fatalf("xpath[0] = %q", got)
	}
	if got := anchors[1].XPath(); got != "/html[1]/body[1]/div[1]/a[2]" {
		t.Fatalf("xpath[1] = %q", got)
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	doc := Parse(samplePage)
	var sb strings.Builder
	writeTree(NewWriter(&sb), &sb, doc)
	doc2 := Parse(sb.String())
	if err := sameTree(doc, doc2); err != nil {
		t.Fatalf("tree changed across write and re-parse: %v\n%s", err, sb.String())
	}
	a1 := doc.ElementsByTag("a")[2]
	a2 := doc2.ElementsByTag("a")[2]
	if a1.XPath() != a2.XPath() {
		t.Fatalf("xpath changed: %q vs %q", a1.XPath(), a2.XPath())
	}
}

func TestLayoutVerticalStacking(t *testing.T) {
	doc := Parse(`<html><body><div id="a" height="100"></div><div id="b" height="50"></div></body></html>`)
	Layout(doc, 1280)
	a, b := byID(doc, "a"), byID(doc, "b")
	if a.Box.H != 100 {
		t.Fatalf("a height = %d", a.Box.H)
	}
	if b.Box.Y <= a.Box.Y {
		t.Fatalf("b (y=%d) should be below a (y=%d)", b.Box.Y, a.Box.Y)
	}
}

func TestLayoutDynamicContentShiftsOnlyY(t *testing.T) {
	// The same iframe rendered below differently sized dynamic content
	// must keep x/w/h and differ only in y — the invariant behind matching
	// heuristic 2.
	page := func(bannerH int) *Node {
		doc := Parse(`<html><body><div id="banner" height="` + strconv.Itoa(bannerH) +
			`"></div><iframe id="ad" src="/s" width="300" height="250"></iframe></body></html>`)
		Layout(doc, 1280)
		return doc
	}
	p1, p2 := page(60), page(200)
	ad1, ad2 := byID(p1, "ad"), byID(p2, "ad")
	if ad1.Box.X != ad2.Box.X || ad1.Box.W != ad2.Box.W || ad1.Box.H != ad2.Box.H {
		t.Fatalf("x/w/h changed: %v vs %v", ad1.Box, ad2.Box)
	}
	if ad1.Box.Y == ad2.Box.Y {
		t.Fatal("y should differ when content above resizes")
	}
}

func TestLayoutInlineWrapping(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<html><body><div>")
	for i := 0; i < 20; i++ {
		sb.WriteString(`<a href="/x">link</a>`)
	}
	sb.WriteString("</div></body></html>")
	doc := Parse(sb.String())
	Layout(doc, 400)
	anchors := doc.ElementsByTag("a")
	rows := map[int]bool{}
	for _, a := range anchors {
		rows[a.Box.Y] = true
		if a.Box.X+a.Box.W > 400+160 {
			t.Fatalf("anchor exceeds viewport badly: %v", a.Box)
		}
	}
	if len(rows) < 2 {
		t.Fatal("20 anchors at 160px in 400px viewport should wrap to multiple rows")
	}
}

func TestLayoutZeroViewportDefaults(t *testing.T) {
	doc := Parse(`<html><body><p>x</p></body></html>`)
	Layout(doc, 0) // must not panic; defaults to 1280
	p := doc.ElementsByTag("p")[0]
	if p.Box.W != 1280 {
		t.Fatalf("full-width p = %d, want 1280", p.Box.W)
	}
}

// Property: writing a generator-shaped page and parsing it back yields
// the anchors and iframes written, with their hrefs intact.
func TestRoundTripProperty(t *testing.T) {
	f := func(hrefs []string, useIframe bool) bool {
		if len(hrefs) > 11 {
			hrefs = hrefs[:11]
		}
		var sb strings.Builder
		w := NewWriter(&sb)
		w.Open("html")
		w.Open("body")
		for _, h := range hrefs {
			w.Elem("a", "t", "href", h)
		}
		if useIframe {
			w.Elem("iframe", "", "src", "/slot")
		}
		w.Close()
		w.Close()
		doc := Parse(sb.String())
		anchors := doc.ElementsByTag("a")
		if len(anchors) != len(hrefs) {
			return false
		}
		for i, a := range anchors {
			if a.AttrOr("href", "") != hrefs[i] {
				return false
			}
		}
		return len(doc.ElementsByTag("iframe")) == map[bool]int{false: 0, true: 1}[useIframe]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseClearsBlocks: a released document's blocks hold no string
// or pointer of the page it held, up to their full capacity, so a pooled
// document keeps no page body alive and fills as a fresh one. The
// document first holds a larger page, so the smaller one's blocks have
// capacity beyond their length.
func TestReleaseClearsBlocks(t *testing.T) {
	d := ParseDocument(samplePage + samplePage)
	d.reset()
	d.fill(samplePage)
	nodes, kids, attrs := d.nodes[:cap(d.nodes)], d.kids[:cap(d.kids)], d.attrs[:cap(d.attrs)]
	if len(d.nodes) == len(nodes) || len(d.attrs) == 0 {
		t.Fatalf("blocks: %d of %d nodes, %d attributes; want spare node capacity and attributes", len(d.nodes), len(nodes), len(d.attrs))
	}
	d.Release()
	for i := range nodes {
		if !reflect.ValueOf(nodes[i]).IsZero() {
			t.Fatalf("released node %d = %+v", i, nodes[i])
		}
	}
	for i, k := range kids {
		if k != nil {
			t.Fatalf("released child pointer %d is set", i)
		}
	}
	for i, a := range attrs {
		if a != (Attr{}) {
			t.Fatalf("released attribute %d = %+v", i, a)
		}
	}
}

// TestParseDocumentMatchesParse: the pooled parse builds the tree Parse
// builds, also after the pool recycled a document.
func TestParseDocumentMatchesParse(t *testing.T) {
	for _, html := range []string{samplePage + samplePage, samplePage, "", "<p>x"} {
		d := ParseDocument(html)
		if !reflect.DeepEqual(d.Root(), Parse(html)) {
			t.Errorf("ParseDocument(%q) differs from Parse", html)
		}
		d.Release()
	}
}
