package dom

import (
	"strings"
)

// voidElements never have children and need no closing tag.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"source": true, "track": true, "wbr": true,
}

// nodeArena hands out tree nodes and attribute slices in blocks, so
// parsing a page costs one heap object per block of nodes instead of
// one per node, and one attribute block per document instead of a
// growing slice per element (the parser was the crawl's densest source
// of small allocations). Nodes in a block share a backing array, so a
// single retained node keeps its whole block alive — fine here, because
// the crawler discards pages wholesale. Every attribute slice has cap ==
// len, so appending to one element's Attrs reallocates instead of
// overwriting its neighbour's. The arena is per-Parse call, never pooled
// or shared: trees built from it are identical to individually-allocated
// ones in every observable way.
type nodeArena struct {
	blk   []Node
	attrs []Attr
}

// arenaOverflowBlock sizes the blocks handed out after the initial
// estimate (see Parse) runs dry.
const arenaOverflowBlock = 32

func (a *nodeArena) node() *Node {
	if len(a.blk) == 0 {
		a.blk = make([]Node, arenaOverflowBlock)
	}
	n := &a.blk[0]
	a.blk = a.blk[1:]
	return n
}

// attrList copies src into the attribute block and returns the copy.
func (a *nodeArena) attrList(src []Attr) []Attr {
	n := len(src)
	if n == 0 {
		return nil
	}
	if len(a.attrs) < n {
		a.attrs = make([]Attr, max(n, arenaOverflowBlock))
	}
	out := a.attrs[:n:n]
	a.attrs = a.attrs[n:]
	copy(out, src)
	return out
}

// Parse parses an HTML document into a tree rooted at a synthetic
// #document node. The parser accepts the well-formed subset the synthetic
// web emits and degrades gracefully on the rest: unknown entities pass
// through, stray close tags are ignored, and unclosed elements are closed
// at end of input. Parse never fails; like a browser, it always produces a
// tree.
func Parse(html string) *Node {
	// Every node begins at a '<' (open tag, comment) or follows one
	// (text run), and close tags consume a '<' without producing a
	// node, so the '<' count is a tight upper bound on the node count.
	// One counting pass sizes the arena's first block so a typical
	// document costs a single node allocation with little slack.
	// Likewise every valued attribute holds an '=', so the '=' count
	// bounds the attribute count (boolean attributes, which have none,
	// spill into an overflow block).
	arena := nodeArena{
		blk:   make([]Node, strings.Count(html, "<")+2),
		attrs: make([]Attr, strings.Count(html, "=")),
	}
	newText := func(text string) *Node {
		n := arena.node()
		n.Type, n.Text = TextNode, text
		return n
	}
	root := arena.node()
	root.Type, root.Tag = ElementNode, "#document"
	stack := []*Node{root}
	top := func() *Node { return stack[len(stack)-1] }

	i := 0
	for i < len(html) {
		if html[i] != '<' {
			// Text run.
			j := strings.IndexByte(html[i:], '<')
			if j < 0 {
				j = len(html) - i
			}
			text := html[i : i+j]
			if strings.TrimSpace(text) != "" {
				top().AppendChild(newText(decodeEntities(text)))
			}
			i += j
			continue
		}
		// Comment.
		if strings.HasPrefix(html[i:], "<!--") {
			end := strings.Index(html[i+4:], "-->")
			if end < 0 {
				c := arena.node()
				c.Type, c.Text = CommentNode, html[i+4:]
				top().AppendChild(c)
				break
			}
			c := arena.node()
			c.Type, c.Text = CommentNode, html[i+4:i+4+end]
			top().AppendChild(c)
			i += 4 + end + 3
			continue
		}
		// Doctype or other declaration: skip to '>'.
		if strings.HasPrefix(html[i:], "<!") || strings.HasPrefix(html[i:], "<?") {
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				break
			}
			i += end + 1
			continue
		}
		// Close tag.
		if strings.HasPrefix(html[i:], "</") {
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				break
			}
			name := strings.ToLower(strings.TrimSpace(html[i+2 : i+end]))
			// Pop to the matching open element if one exists.
			for d := len(stack) - 1; d >= 1; d-- {
				if stack[d].Tag == name {
					stack = stack[:d]
					break
				}
			}
			i += end + 1
			continue
		}
		// Open tag.
		end := strings.IndexByte(html[i:], '>')
		if end < 0 {
			break
		}
		raw := html[i+1 : i+end]
		i += end + 1
		selfClose := strings.HasSuffix(raw, "/")
		if selfClose {
			raw = strings.TrimSuffix(raw, "/")
		}
		el := parseTag(raw, &arena)
		if el == nil {
			continue
		}
		top().AppendChild(el)
		if el.Tag == "script" || el.Tag == "style" {
			// Raw-text elements: consume to the closing tag verbatim.
			idx := indexCloser(html[i:], el.Tag)
			if idx < 0 {
				el.AppendChild(newText(html[i:]))
				break
			}
			if idx > 0 {
				el.AppendChild(newText(html[i : i+idx]))
			}
			gt := strings.IndexByte(html[i+idx:], '>')
			if gt < 0 {
				break
			}
			i += idx + gt + 1
			continue
		}
		if !selfClose && !voidElements[el.Tag] {
			stack = append(stack, el)
		}
	}
	return root
}

// indexCloser returns the offset of the first "</" in s that is followed
// by tag (lower-case ASCII), compared case-insensitively, or -1. It scans
// s in place: offsets are into s itself, whatever non-ASCII text precedes
// the closer. Because tag is ASCII, EqualFold never matches a multi-byte
// rune (the Kelvin sign, the long s) against one of its letters.
func indexCloser(s, tag string) int {
	for off := 0; ; {
		j := strings.Index(s[off:], "</")
		if j < 0 {
			return -1
		}
		j += off
		if len(s)-j-2 >= len(tag) && strings.EqualFold(s[j+2:j+2+len(tag)], tag) {
			return j
		}
		off = j + 2
	}
}

// parseTag parses "name attr=val attr2="v2" flag" into an element
// allocated from the parse arena. Attributes collect in a stack buffer
// and move to the arena's attribute block once the tag is complete.
func parseTag(raw string, a *nodeArena) *Node {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return nil
	}
	nameEnd := 0
	for nameEnd < len(raw) && !isSpace(raw[nameEnd]) {
		nameEnd++
	}
	el := a.node()
	el.Type, el.Tag = ElementNode, strings.ToLower(raw[:nameEnd])
	var buf [16]Attr
	attrs := buf[:0]
	rest := raw[nameEnd:]
	for {
		rest = strings.TrimLeft(rest, " \t\r\n")
		if rest == "" {
			break
		}
		// Attribute name.
		j := 0
		for j < len(rest) && rest[j] != '=' && !isSpace(rest[j]) {
			j++
		}
		name := strings.ToLower(rest[:j])
		rest = rest[j:]
		if name == "" {
			break
		}
		rest = strings.TrimLeft(rest, " \t\r\n")
		if !strings.HasPrefix(rest, "=") {
			// Boolean attribute.
			attrs = append(attrs, Attr{Name: name})
			continue
		}
		rest = strings.TrimLeft(rest[1:], " \t\r\n")
		var value string
		switch {
		case strings.HasPrefix(rest, `"`):
			end := strings.IndexByte(rest[1:], '"')
			if end < 0 {
				value, rest = rest[1:], ""
			} else {
				value, rest = rest[1:1+end], rest[2+end:]
			}
		case strings.HasPrefix(rest, "'"):
			end := strings.IndexByte(rest[1:], '\'')
			if end < 0 {
				value, rest = rest[1:], ""
			} else {
				value, rest = rest[1:1+end], rest[2+end:]
			}
		default:
			j = 0
			for j < len(rest) && !isSpace(rest[j]) {
				j++
			}
			value, rest = rest[:j], rest[j:]
		}
		attrs = append(attrs, Attr{Name: name, Value: decodeEntities(value)})
	}
	el.Attrs = a.attrList(attrs)
	return el
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

var entityReplacer = strings.NewReplacer(
	"&amp;", "&",
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&#39;", "'",
	"&apos;", "'",
	"&nbsp;", " ",
)

var entityEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
)

func decodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return entityReplacer.Replace(s)
}
