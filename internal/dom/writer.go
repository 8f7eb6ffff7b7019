package dom

import "io"

// Writer streams HTML straight into an io.Writer, so a generated page
// exists once, as the bytes it is served as, instead of first as a
// throwaway tree. Text and attribute values are escaped the way Parse
// expects (& < > "), void elements get no end tag, and Parse of the
// written bytes yields the tree the calls describe.
//
// Write errors are dropped: the destination is an http.ResponseWriter,
// whose writes fail only once the client has gone, and a handler has
// nothing to do about that.
type Writer struct {
	w    io.Writer
	open []string // tags of the elements still open, innermost last
	buf  [8]string
}

// NewWriter returns a Writer emitting into w.
func NewWriter(w io.Writer) *Writer {
	dw := &Writer{w: w}
	dw.open = dw.buf[:0]
	return dw
}

func (w *Writer) raw(s string) { io.WriteString(w.w, s) }

// Open writes a start tag with alternating attribute name/value pairs,
// in order. A void element is complete once written; any other element
// stays open until the matching Close. It panics on an odd number of
// pairs, which is always a programming error in the generator.
func (w *Writer) Open(tag string, attrPairs ...string) {
	if len(attrPairs)%2 != 0 {
		panic("dom: Writer.Open attrPairs must be name/value pairs")
	}
	w.raw("<")
	w.raw(tag)
	for i := 0; i < len(attrPairs); i += 2 {
		w.raw(" ")
		w.raw(attrPairs[i])
		w.raw(`="`)
		w.Text(attrPairs[i+1])
		w.raw(`"`)
	}
	w.raw(">")
	if !voidElements[tag] {
		w.open = append(w.open, tag)
	}
}

// Text writes escaped character data.
func (w *Writer) Text(s string) { entityEscaper.WriteString(w.w, s) }

// Close writes the end tag of the innermost open element.
func (w *Writer) Close() {
	tag := w.open[len(w.open)-1]
	w.open = w.open[:len(w.open)-1]
	w.raw("</")
	w.raw(tag)
	w.raw(">")
}

// Elem writes a complete non-void element holding only text: Open,
// Text, Close.
func (w *Writer) Elem(tag, text string, attrPairs ...string) {
	w.Open(tag, attrPairs...)
	w.Text(text)
	w.Close()
}
