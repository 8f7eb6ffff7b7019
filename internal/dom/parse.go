package dom

import (
	"strings"
	"sync"
)

// voidElements never have children and need no closing tag.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"source": true, "track": true, "wbr": true,
}

// parseScratch is the working table a parse builds a document in
// before materializing it: one row per node in document order, linked
// by parent index, with each element's attributes as a range of one
// shared attribute list. Scratch tables are pooled; the reset contract
// (DESIGN.md §10) is that release clears every row and attribute before
// Put, so a pooled table holds no string of the last page it parsed and
// is indistinguishable from a fresh one.
type parseScratch struct {
	nodes []scratchNode
	attrs []Attr
	stack []int // open elements, innermost last; stack[0] is the root
}

// scratchNode is one row of the table.
type scratchNode struct {
	typ            NodeType
	tag, text      string
	parent         int
	attrLo, attrHi int // the element's range of parseScratch.attrs
	children       int
}

var scratchPool = sync.Pool{New: func() any { return new(parseScratch) }}

// add appends a node as the last child of parent and returns its index.
func (sc *parseScratch) add(parent int, typ NodeType, tag, text string) int {
	sc.nodes[parent].children++
	sc.nodes = append(sc.nodes, scratchNode{typ: typ, tag: tag, text: text, parent: parent})
	return len(sc.nodes) - 1
}

func (sc *parseScratch) top() int { return sc.stack[len(sc.stack)-1] }

// release clears the table and returns it to the pool.
func (sc *parseScratch) release() {
	clear(sc.nodes)
	clear(sc.attrs)
	sc.nodes, sc.attrs, sc.stack = sc.nodes[:0], sc.attrs[:0], sc.stack[:0]
	scratchPool.Put(sc)
}

// Document is a parsed document together with the three blocks its tree
// lives in: the nodes, every node's children and every element's
// attributes. ParseDocument takes a Document from a pool and fills it;
// Release gives it back, so a crawl in steady state parses each page
// into blocks an earlier page has released instead of allocating a tree
// per load.
//
// Release ends the document: neither it nor any *Node, Children or Attrs
// slice reached from Root may be used afterwards, since the next parse
// overwrites them. Strings read from the tree stay valid; they are
// substrings of the parsed html (or decoded copies), never of the
// blocks.
type Document struct {
	nodes []Node
	kids  []*Node
	attrs []Attr
}

// docPool recycles released documents. The reset contract (DESIGN.md
// §10): Release clears every node, child pointer and attribute before
// Put, so a pooled document holds nothing of the page it last held.
var docPool = sync.Pool{New: func() any { return new(Document) }}

// ParseDocument parses html as Parse does, into a pooled Document for
// the caller to Release when it drops the tree. An unreleased document
// is simply collected.
func ParseDocument(html string) *Document {
	d := docPool.Get().(*Document)
	d.fill(html)
	return d
}

// Root returns the document's synthetic #document node.
func (d *Document) Root() *Node { return &d.nodes[0] }

// Release clears the document's blocks and returns it to the pool. See
// the type's doc for what it ends.
func (d *Document) Release() {
	d.reset()
	docPool.Put(d)
}

// reset clears the blocks and empties them, keeping their capacity.
func (d *Document) reset() {
	clear(d.nodes)
	clear(d.kids)
	clear(d.attrs)
	d.nodes, d.kids, d.attrs = d.nodes[:0], d.kids[:0], d.attrs[:0]
}

// Parse parses an HTML document into a tree rooted at a synthetic
// #document node. The parser accepts the well-formed subset the synthetic
// web emits and degrades gracefully on the rest: unknown entities pass
// through, stray close tags are ignored, and unclosed elements are closed
// at end of input. Parse never fails; like a browser, it always produces a
// tree. The tree's blocks are freshly allocated and never recycled;
// ParseDocument is the pooled form.
func Parse(html string) *Node {
	var d Document
	d.fill(html)
	return d.Root()
}

// fill parses html into d, whose blocks are empty: their elements up to
// cap are zero, as a fresh or released document's are.
func (d *Document) fill(html string) {
	sc := scratchPool.Get().(*parseScratch)
	sc.parse(html)
	sc.materialize(d)
	sc.release()
}

// materialize builds the tree the table describes in d's blocks, each
// reused when its capacity suffices and allocated at the exact size
// otherwise, so a parsed page costs at most three allocations plus its
// decoded strings. Rows are in document order, so filling each parent's
// children in row order keeps them in document order. Every Children
// and Attrs slice has cap == len: appending to one node's reallocates
// instead of writing into its neighbour's.
func (sc *parseScratch) materialize(d *Document) {
	nodes := resize(d.nodes, len(sc.nodes))
	attrs := resize(d.attrs, len(sc.attrs))
	copy(attrs, sc.attrs)
	kids := resize(d.kids, len(sc.nodes)-1)
	off := 0
	for i := range sc.nodes {
		r := &sc.nodes[i]
		n := &nodes[i]
		n.Type, n.Tag, n.Text = r.typ, r.tag, r.text
		if r.attrHi > r.attrLo {
			n.Attrs = attrs[r.attrLo:r.attrHi:r.attrHi]
		}
		if r.children > 0 {
			n.Children = kids[off : off : off+r.children]
			off += r.children
		}
		if i > 0 {
			p := &nodes[r.parent]
			n.Parent = p
			p.Children = append(p.Children, n)
		}
	}
	d.nodes, d.kids, d.attrs = nodes, kids, attrs
}

// resize returns s with length n, reusing its backing array when it is
// large enough. An empty result of a nil s stays nil.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// parse fills the table from html.
func (sc *parseScratch) parse(html string) {
	sc.nodes = append(sc.nodes, scratchNode{typ: ElementNode, tag: "#document"})
	sc.stack = append(sc.stack, 0)
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
				sc.add(sc.top(), TextNode, "", decodeEntities(text))
			}
			i += j
			continue
		}
		// Comment.
		if strings.HasPrefix(html[i:], "<!--") {
			end := strings.Index(html[i+4:], "-->")
			if end < 0 {
				sc.add(sc.top(), CommentNode, "", html[i+4:])
				break
			}
			sc.add(sc.top(), CommentNode, "", html[i+4:i+4+end])
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
			for d := len(sc.stack) - 1; d >= 1; d-- {
				if sc.nodes[sc.stack[d]].tag == name {
					sc.stack = sc.stack[:d]
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
		el, ok := sc.parseTag(raw)
		if !ok {
			continue
		}
		tag := sc.nodes[el].tag
		if tag == "script" || tag == "style" {
			// Raw-text elements: consume to the closing tag verbatim.
			idx := indexCloser(html[i:], tag)
			if idx < 0 {
				sc.add(el, TextNode, "", html[i:])
				break
			}
			if idx > 0 {
				sc.add(el, TextNode, "", html[i:i+idx])
			}
			gt := strings.IndexByte(html[i+idx:], '>')
			if gt < 0 {
				break
			}
			i += idx + gt + 1
			continue
		}
		if !selfClose && !voidElements[tag] {
			sc.stack = append(sc.stack, el)
		}
	}
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

// parseTag parses "name attr=val attr2="v2" flag" into an element row
// appended under the current open element, its attributes appended to
// the table's attribute list. It reports false for an empty tag.
func (sc *parseScratch) parseTag(raw string) (int, bool) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return 0, false
	}
	nameEnd := 0
	for nameEnd < len(raw) && !isSpace(raw[nameEnd]) {
		nameEnd++
	}
	el := sc.add(sc.top(), ElementNode, strings.ToLower(raw[:nameEnd]), "")
	lo := len(sc.attrs)
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
			sc.attrs = append(sc.attrs, Attr{Name: name})
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
		sc.attrs = append(sc.attrs, Attr{Name: name, Value: decodeEntities(value)})
	}
	sc.nodes[el].attrLo, sc.nodes[el].attrHi = lo, len(sc.attrs)
	return el, true
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
