package dom

import (
	"fmt"
	"strings"
	"testing"
)

// writeTree writes a parsed tree back out through w. Raw-text elements
// (script, style) carry their text verbatim, so it goes straight to sb,
// the Writer's own destination.
func writeTree(w *Writer, sb *strings.Builder, n *Node) {
	switch n.Type {
	case TextNode:
		w.Text(n.Text)
		return
	case CommentNode:
		return
	}
	if n.Tag != "#document" {
		pairs := make([]string, 0, 2*len(n.Attrs))
		for _, a := range n.Attrs {
			pairs = append(pairs, a.Name, a.Value)
		}
		w.Open(n.Tag, pairs...)
		if voidElements[n.Tag] {
			return
		}
	}
	for _, c := range n.Children {
		if n.Tag == "script" || n.Tag == "style" {
			sb.WriteString(c.Text)
		} else {
			writeTree(w, sb, c)
		}
	}
	if n.Tag != "#document" {
		w.Close()
	}
}

// sameTree reports the first difference between two trees, ignoring
// layout boxes and comments.
func sameTree(a, b *Node) error {
	if a.Type != b.Type || a.Tag != b.Tag || a.Text != b.Text {
		return fmt.Errorf("node %q/%q vs %q/%q", a.Tag, a.Text, b.Tag, b.Text)
	}
	if fmt.Sprint(a.Attrs) != fmt.Sprint(b.Attrs) {
		return fmt.Errorf("<%s> attrs %v vs %v", a.Tag, a.Attrs, b.Attrs)
	}
	var ac, bc []*Node
	for _, c := range a.Children {
		if c.Type != CommentNode {
			ac = append(ac, c)
		}
	}
	for _, c := range b.Children {
		if c.Type != CommentNode {
			bc = append(bc, c)
		}
	}
	if len(ac) != len(bc) {
		return fmt.Errorf("<%s> has %d children vs %d", a.Tag, len(ac), len(bc))
	}
	for i := range ac {
		if err := sameTree(ac[i], bc[i]); err != nil {
			return err
		}
	}
	return nil
}

func TestWriterAttributes(t *testing.T) {
	var sb strings.Builder
	NewWriter(&sb).Elem("a", "x", "href", "/y", "rel", "nofollow", "data-n7", "1")
	if got, want := sb.String(), `<a href="/y" rel="nofollow" data-n7="1">x</a>`; got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	a := Parse(sb.String()).ElementsByTag("a")[0]
	if got := a.AttrNames(); fmt.Sprint(got) != "[href rel data-n7]" {
		t.Fatalf("AttrNames = %v, want document order", got)
	}
	if got := a.AttrOr("rel", ""); got != "nofollow" {
		t.Fatalf("rel = %q", got)
	}
}

func TestWriterEscaping(t *testing.T) {
	var sb strings.Builder
	NewWriter(&sb).Elem("a", `5 < 6 & 7 > 2 "q"`, "href", `/x?a=1&b="q"<>`)
	want := `<a href="/x?a=1&amp;b=&quot;q&quot;&lt;&gt;">5 &lt; 6 &amp; 7 &gt; 2 &quot;q&quot;</a>`
	if got := sb.String(); got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	a := Parse(sb.String()).ElementsByTag("a")[0]
	if got := a.AttrOr("href", ""); got != `/x?a=1&b="q"<>` {
		t.Fatalf("attr round trip: %q", got)
	}
	if got := innerText(a); got != `5 < 6 & 7 > 2 "q"` {
		t.Fatalf("text round trip: %q", got)
	}
}

func TestWriterVoidElements(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Open("div")
	w.Open("img", "src", "/a.png")
	w.Open("br")
	w.Open("input", "type", "text")
	w.Close() // the div: void elements never stay open
	w.Elem("p", "sib")
	if got, want := sb.String(), `<div><img src="/a.png"><br><input type="text"></div><p>sib</p>`; got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	if p := Parse(sb.String()).ElementsByTag("p")[0]; p.Parent.Tag != "#document" {
		t.Fatalf("p parent = %q, want the document", p.Parent.Tag)
	}
}

// TestWriterParseIntendedTree: Parse of the written bytes is exactly the
// tree the Writer calls describe.
func TestWriterParseIntendedTree(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Open("html")
	w.Open("head")
	w.Elem("title", "Shop — a&b")
	w.Close()
	w.Open("body")
	w.Elem("script", "", "src", "http://t.example/t.js", "data-cc", "beacon")
	w.Open("nav", "id", "top")
	w.Elem("a", "home", "href", "/p/1")
	w.Close()
	w.Open("div", "class", "content")
	w.Elem("iframe", "", "src", "http://ads.example/slot?pub=x&sl=0", "width", "300")
	w.Close()
	w.Close()
	w.Close()

	elem := func(tag string, attrs []Attr, children ...*Node) *Node {
		return &Node{Type: ElementNode, Tag: tag, Attrs: attrs, Children: children}
	}
	text := func(s string) *Node { return &Node{Type: TextNode, Text: s} }
	want := elem("#document", nil,
		elem("html", nil,
			elem("head", nil, elem("title", nil, text("Shop — a&b"))),
			elem("body", nil,
				elem("script", []Attr{{"src", "http://t.example/t.js"}, {"data-cc", "beacon"}}),
				elem("nav", []Attr{{"id", "top"}}, elem("a", []Attr{{"href", "/p/1"}}, text("home"))),
				elem("div", []Attr{{"class", "content"}},
					elem("iframe", []Attr{{"src", "http://ads.example/slot?pub=x&sl=0"}, {"width", "300"}})))))
	if err := sameTree(Parse(sb.String()), want); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
}
