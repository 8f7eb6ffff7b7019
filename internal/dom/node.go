// Package dom implements the small HTML engine CrumbCruncher's simulated
// browser runs on: a streaming writer the synthetic web generates pages
// with, a tokenizer and parser for the HTML subset it emits, an element
// tree with attributes, x-path computation, and a deterministic
// block-layout pass that assigns bounding boxes.
//
// The paper's crawlers identify "the same" element across page instances by
// href, by attribute names + bounding box, or by attribute names + x-path
// (§3.3); this package supplies all three signals.
package dom

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeType distinguishes the node kinds in the tree.
type NodeType int

const (
	// ElementNode is a tag with attributes and children.
	ElementNode NodeType = iota
	// TextNode is character data.
	TextNode
	// CommentNode is an HTML comment.
	CommentNode
)

// Attr is a single name="value" attribute. Attribute order is preserved
// from the source, which keeps rendering and attribute-name fingerprints
// deterministic.
type Attr struct {
	Name  string
	Value string
}

// Rect is an element's layout bounding box in CSS pixels.
type Rect struct {
	X, Y, W, H int
}

// String renders a Rect compactly for logs and controller payloads.
func (r Rect) String() string { return fmt.Sprintf("(%d,%d %dx%d)", r.X, r.Y, r.W, r.H) }

// Node is a node in the document tree. The zero value is an empty text
// node.
type Node struct {
	Type     NodeType
	Tag      string // lowercase tag name for ElementNode
	Text     string // data for TextNode and CommentNode
	Attrs    []Attr
	Parent   *Node
	Children []*Node

	// Box is populated by Layout.
	Box Rect
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute or a default.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// AttrNames returns the attribute names in document order. Two elements
// "have the same HTML attribute names" (heuristics 2 and 3 in §3.3) when
// these slices are equal.
func (n *Node) AttrNames() []string {
	names := make([]string, len(n.Attrs))
	for i, a := range n.Attrs {
		names[i] = a.Name
	}
	return names
}

// FindAll appends every matching element in document order.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.walk(func(e *Node) {
		if pred(e) {
			out = append(out, e)
		}
	})
	return out
}

// ElementsByTag returns all elements with the given tag in document order.
func (n *Node) ElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	return n.FindAll(func(e *Node) bool { return e.Tag == tag })
}

// walk visits every element node depth-first.
func (n *Node) walk(visit func(*Node)) {
	if n.Type == ElementNode {
		visit(n)
	}
	for _, c := range n.Children {
		c.walk(visit)
	}
}

// XPath returns a simple positional x-path for the element, e.g.
// /html[1]/body[1]/div[2]/a[1]. Positions count same-tag siblings only,
// matching what browser devtools produce and what the paper's controller
// compares.
//
// The path is assembled in stack buffers and allocates only the final
// string — it runs once per candidate element per page snapshot, where
// the earlier Sprintf-per-segment version was the crawl's single largest
// allocation site.
func (n *Node) XPath() string {
	if n.Type != ElementNode {
		if n.Parent != nil {
			return n.Parent.XPath()
		}
		return ""
	}
	// Collect the ancestor chain; document order is the reverse.
	var stack [32]*Node
	chain := stack[:0]
	for e := n; e != nil && e.Type == ElementNode && e.Tag != "#document"; e = e.Parent {
		chain = append(chain, e)
	}
	var buf [128]byte
	out := buf[:0]
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i]
		pos := 1
		if e.Parent != nil {
			for _, sib := range e.Parent.Children {
				if sib == e {
					break
				}
				if sib.Type == ElementNode && sib.Tag == e.Tag {
					pos++
				}
			}
		}
		out = append(out, '/')
		out = append(out, e.Tag...)
		out = append(out, '[')
		out = strconv.AppendInt(out, int64(pos), 10)
		out = append(out, ']')
	}
	return string(out)
}
