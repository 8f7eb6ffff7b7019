package runstore

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/dom"
)

// A walk record is decoded by a hand-written decoder for the canonical
// form json.Marshal writes (encodeWalk), with no reflection. It accepts
// an input only where encoding/json would decode the same value without
// error: every key of a struct an exact-case field name, seen once;
// integers without fraction, exponent, leading zero or '+' that fit an
// int; string escapes and valid UTF-8, with surrogates only as pairs;
// nothing after the record but white space. Like encoding/json it turns
// [] and {} into empty non-nil values, leaves the zero value for null,
// keeps the last of repeated map keys, and hands times to
// time.Time.UnmarshalJSON as their quoted bytes.
// Anything else makes decodeWalkRecord report false, and decodeWalk
// falls back to json.Unmarshal, so every input keeps the result (and
// the error) encoding/json gives it.

// walkDecoder reads one record. The first input it cannot decode as
// encoding/json would sets bad; from then on every read returns a zero
// value without consuming input.
type walkDecoder struct {
	buf     []byte
	pos     int
	bad     bool
	scratch []byte // unescaping buffer, reused across strings
}

// decodeWalkRecord decodes raw with the fast decoder, reporting false
// when raw needs encoding/json.
func decodeWalkRecord(raw []byte) (walkRecord, bool) {
	d := walkDecoder{buf: raw}
	var rec walkRecord
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "index":
			rec.Index = d.int()
		case "clock":
			// Records written before walks had their own clocks carry
			// the crawl's virtual instant here. walkRecord has no such
			// field, so encoding/json skips the value, and so does this.
			if !d.null() {
				d.stringToken()
			}
		case "walk":
			rec.Walk = d.walk()
		default:
			return false
		}
		return true
	})
	d.skipSpace()
	if d.bad || d.pos != len(d.buf) {
		return walkRecord{}, false
	}
	return rec, true
}

func (d *walkDecoder) walk() *crawler.Walk {
	if d.null() {
		return nil
	}
	w := &crawler.Walk{}
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "index":
			w.Index = d.int()
		case "seeder":
			w.Seeder = d.str()
		case "steps":
			w.Steps = sliceOf(d, d.step)
		case "seed_load":
			w.SeedLoad = mapOf(d, d.crawlerStep)
		case "ended":
			w.Ended = crawler.StepOutcome(d.str())
		case "degraded":
			w.Degraded = d.str()
		case "skipped":
			w.Skipped = d.bool()
		default:
			return false
		}
		return true
	})
	return w
}

func (d *walkDecoder) step() *crawler.Step {
	if d.null() {
		return nil
	}
	s := &crawler.Step{}
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "walk":
			s.Walk = d.int()
		case "index":
			s.Index = d.int()
		case "outcome":
			s.Outcome = crawler.StepOutcome(d.str())
		case "records":
			s.Records = mapOf(d, d.crawlerStep)
		default:
			return false
		}
		return true
	})
	return s
}

func (d *walkDecoder) crawlerStep() *crawler.CrawlerStep {
	if d.null() {
		return nil
	}
	cs := &crawler.CrawlerStep{}
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "crawler":
			cs.Crawler = d.str()
		case "profile":
			cs.Profile = d.str()
		case "start_url":
			cs.StartURL = d.str()
		case "before":
			cs.Before = d.snapshot()
		case "click_index":
			cs.ClickIndex = d.int()
		case "clicked":
			cs.Clicked = d.element()
		case "nav_chain":
			cs.NavChain = sliceOf(d, d.hop)
		case "requests":
			cs.Requests = sliceOf(d, d.request)
		case "landed_url":
			cs.LandedURL = d.str()
		case "after":
			cs.After = d.snapshot()
		case "fail":
			cs.Fail = d.str()
		default:
			return false
		}
		return true
	})
	return cs
}

func (d *walkDecoder) snapshot() crawler.Snapshot {
	var s crawler.Snapshot
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "url":
			s.URL = d.str()
		case "cookies":
			s.Cookies = sliceOf(d, d.cookie)
		case "local":
			s.Local = mapOf(d, d.str)
		default:
			return false
		}
		return true
	})
	return s
}

func (d *walkDecoder) cookie() crawler.CookieRecord {
	var c crawler.CookieRecord
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "name":
			c.Name = d.str()
		case "value":
			c.Value = d.str()
		case "domain":
			c.Domain = d.str()
		case "created":
			c.Created = d.time()
		case "expires":
			c.Expires = d.time()
		default:
			return false
		}
		return true
	})
	return c
}

func (d *walkDecoder) element() *crawler.Element {
	if d.null() {
		return nil
	}
	e := &crawler.Element{}
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "index":
			e.Index = d.int()
		case "kind":
			e.Kind = d.str()
		case "href":
			e.Href = d.str()
		case "attr_names":
			e.AttrNames = sliceOf(d, d.str)
		case "box":
			e.Box = d.rect()
		case "xpath":
			e.XPath = d.str()
		case "cross_domain":
			e.CrossDomain = d.bool()
		default:
			return false
		}
		return true
	})
	return e
}

func (d *walkDecoder) rect() dom.Rect {
	var r dom.Rect
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "X":
			r.X = d.int()
		case "Y":
			r.Y = d.int()
		case "W":
			r.W = d.int()
		case "H":
			r.H = d.int()
		default:
			return false
		}
		return true
	})
	return r
}

func (d *walkDecoder) hop() browser.Hop {
	var h browser.Hop
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "URL":
			h.URL = d.str()
		case "Status":
			h.Status = d.int()
		case "Location":
			h.Location = d.str()
		default:
			return false
		}
		return true
	})
	return h
}

func (d *walkDecoder) request() browser.RequestRecord {
	var r browser.RequestRecord
	d.fields(func(key []byte) bool {
		switch string(key) {
		case "URL":
			r.URL = d.str()
		case "Kind":
			r.Kind = browser.RequestKind(d.str())
		case "Referer":
			r.Referer = d.str()
		case "Status":
			r.Status = d.int()
		case "Err":
			r.Err = d.str()
		case "Attempt":
			r.Attempt = d.int()
		case "Time":
			r.Time = d.time()
		default:
			return false
		}
		return true
	})
	return r
}

// sliceOf reads an array of elem values: nil for null, empty and
// non-nil for [].
func sliceOf[T any](d *walkDecoder, elem func() T) []T {
	if d.null() {
		return nil
	}
	out := []T{}
	d.array(func() { out = append(out, elem()) })
	return out
}

// mapOf reads an object into a map, the last of repeated keys winning
// as with encoding/json: nil for null, empty and non-nil for {}.
func mapOf[T any](d *walkDecoder, elem func() T) map[string]T {
	if d.null() {
		return nil
	}
	out := map[string]T{}
	d.object(func() {
		k := d.text()
		d.expect(':')
		out[k] = elem()
	})
	return out
}

// fields reads an object whose keys name struct fields; null leaves the
// struct as it is. field decodes the value of one key and reports
// whether the key names a field at all.
func (d *walkDecoder) fields(field func(key []byte) bool) {
	if d.null() {
		return
	}
	var seen [12][]byte
	n := 0
	d.object(func() {
		key, escaped := d.stringToken()
		d.expect(':')
		if d.bad || escaped || n == len(seen) {
			d.fail()
			return
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				d.fail()
				return
			}
		}
		seen[n] = key
		n++
		if !field(key) {
			d.fail()
		}
	})
}

// object reads '{', then calls member at each member until '}'.
func (d *walkDecoder) object(member func()) {
	d.expect('{')
	if d.peek() == '}' {
		d.pos++
		return
	}
	for !d.bad {
		member()
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return
		default:
			d.fail()
		}
	}
}

// array reads '[', then calls elem at each element until ']'.
func (d *walkDecoder) array(elem func()) {
	d.expect('[')
	if d.peek() == ']' {
		d.pos++
		return
	}
	for !d.bad {
		elem()
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return
		default:
			d.fail()
		}
	}
}

func (d *walkDecoder) fail() { d.bad = true }

func (d *walkDecoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte after white space, or 0 at the end of
// input or once the decoder has failed.
func (d *walkDecoder) peek() byte {
	if d.bad {
		return 0
	}
	d.skipSpace()
	if d.pos >= len(d.buf) {
		return 0
	}
	return d.buf[d.pos]
}

func (d *walkDecoder) expect(c byte) {
	if d.peek() != c {
		d.fail()
		return
	}
	d.pos++
}

// literal consumes word, which must come next.
func (d *walkDecoder) literal(word string) {
	if !bytes.HasPrefix(d.buf[d.pos:], []byte(word)) {
		d.fail()
		return
	}
	d.pos += len(word)
}

// null consumes a null and reports whether there was one.
func (d *walkDecoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

func (d *walkDecoder) bool() bool {
	switch d.peek() {
	case 't':
		d.literal("true")
		return !d.bad
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.fail()
	}
	return false
}

// int reads an integer that strconv.ParseInt accepts and int holds.
func (d *walkDecoder) int() int {
	if d.null() || d.bad {
		return 0
	}
	i := d.pos
	neg := i < len(d.buf) && d.buf[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(d.buf) && '0' <= d.buf[i] && d.buf[i] <= '9'; i++ {
		n = n*10 + uint64(d.buf[i]-'0')
		if i-start >= 19 { // more digits than any int64
			d.fail()
			return 0
		}
	}
	// No digits, a leading zero, a fraction or exponent, or past int64.
	switch {
	case i == start, d.buf[start] == '0' && i-start > 1,
		i < len(d.buf) && (d.buf[i] == '.' || d.buf[i] == 'e' || d.buf[i] == 'E'),
		n > 1<<63 || n == 1<<63 && !neg:
		d.fail()
		return 0
	}
	d.pos = i
	v := int64(n)
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

// time reads a time as encoding/json does: the quoted bytes go to
// time.Time.UnmarshalJSON.
func (d *walkDecoder) time() time.Time {
	var t time.Time
	if d.null() {
		return t
	}
	body, _ := d.stringToken()
	if d.bad {
		return t
	}
	if err := t.UnmarshalJSON(d.buf[d.pos-len(body)-2 : d.pos]); err != nil {
		d.fail()
	}
	return t
}

// str reads a string; null is the empty string.
func (d *walkDecoder) str() string {
	if d.null() {
		return ""
	}
	return d.text()
}

// text reads a string token and unescapes it.
func (d *walkDecoder) text() string {
	body, escaped := d.stringToken()
	if !escaped {
		return string(body)
	}
	b := d.scratch[:0]
	for i := 0; i < len(body); {
		if body[i] != '\\' {
			b = append(b, body[i])
			i++
			continue
		}
		switch c := body[i+1]; c {
		case 'u':
			r := hex4(body[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r = utf16.DecodeRune(r, hex4(body[i+2:]))
				i += 6
			}
			b = utf8.AppendRune(b, r)
			continue
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		default: // '"', '\\', '/'
			b = append(b, c)
		}
		i += 2
	}
	d.scratch = b
	return string(b)
}

// stringToken consumes a string and returns the bytes between its
// quotes, reporting whether they hold an escape. It fails on anything
// encoding/json rejects or decodes lossily: control bytes, bad escapes,
// invalid UTF-8 and unpaired surrogates.
func (d *walkDecoder) stringToken() (body []byte, escaped bool) {
	if d.peek() != '"' {
		d.fail()
		return nil, false
	}
	start := d.pos + 1
	i := start
	for i < len(d.buf) && plainByte[d.buf[i]] {
		i++
	}
	for i < len(d.buf) {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return d.buf[start:i], escaped
		case c == '\\':
			n := escapeLen(d.buf[i:])
			if n == 0 {
				d.fail()
				return nil, false
			}
			escaped = true
			i += n
		case c < 0x20:
			d.fail()
			return nil, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.buf[i:])
			if r == utf8.RuneError && size == 1 {
				d.fail()
				return nil, false
			}
			i += size
		}
	}
	d.fail()
	return nil, false
}

// plainByte marks the bytes a string holds as they are: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escapeLen returns the length of the escape sequence that b opens, or
// 0 if it is invalid or a surrogate without its pair.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		r := hex4(b[2:])
		if r < 0 {
			return 0
		}
		if !utf16.IsSurrogate(r) {
			return 6
		}
		if len(b) >= 12 && b[6] == '\\' && b[7] == 'u' && utf16.DecodeRune(r, hex4(b[8:])) != utf8.RuneError {
			return 12
		}
	}
	return 0
}

// hex4 parses the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// A walk record is encoded by hand too, with no reflection, to exactly
// the bytes json.Marshal writes for it: struct fields in declaration
// order under their tag names; omitempty as encoding/json applies it,
// which never omits a time.Time (a struct) and writes a nil slice or
// map without omitempty as null; map keys in sorted order; strings with
// encoding/json's HTML-safe escaping (<, >, & and U+2028/U+2029 as \u
// escapes, invalid UTF-8 as \ufffd, control bytes as \b \f \n \r \t or
// \u00XX); and times as time.Time.MarshalJSON writes them. The one value
// json.Marshal refuses is a time RFC 3339 cannot write; encodeWalkRecord
// reports false for it, and encodeWalk falls back to json.Marshal, so
// the error is encoding/json's.

// walkEncoder appends one record to buf. A value json.Marshal would
// refuse sets bad; encoding carries on, and the caller discards buf.
type walkEncoder struct {
	buf []byte
	bad bool
}

// encodeWalkRecord appends rec's JSON to buf, reporting false when rec
// holds a value json.Marshal refuses.
func encodeWalkRecord(buf []byte, rec walkRecord) ([]byte, bool) {
	e := walkEncoder{buf: buf}
	e.raw(`{"index":`)
	e.int(rec.Index)
	e.raw(`,"walk":`)
	e.walk(rec.Walk)
	e.raw(`}`)
	return e.buf, !e.bad
}

func (e *walkEncoder) walk(w *crawler.Walk) {
	if w == nil {
		e.raw("null")
		return
	}
	e.raw(`{"index":`)
	e.int(w.Index)
	e.raw(`,"seeder":`)
	e.str(w.Seeder)
	e.raw(`,"steps":`)
	encodeSlice(e, w.Steps, e.step)
	if len(w.SeedLoad) > 0 {
		e.raw(`,"seed_load":`)
		encodeMap(e, w.SeedLoad, e.crawlerStep)
	}
	if w.Ended != "" {
		e.raw(`,"ended":`)
		e.str(string(w.Ended))
	}
	if w.Degraded != "" {
		e.raw(`,"degraded":`)
		e.str(w.Degraded)
	}
	if w.Skipped {
		e.raw(`,"skipped":true`)
	}
	e.raw(`}`)
}

func (e *walkEncoder) step(s *crawler.Step) {
	if s == nil {
		e.raw("null")
		return
	}
	e.raw(`{"walk":`)
	e.int(s.Walk)
	e.raw(`,"index":`)
	e.int(s.Index)
	e.raw(`,"outcome":`)
	e.str(string(s.Outcome))
	e.raw(`,"records":`)
	encodeMap(e, s.Records, e.crawlerStep)
	e.raw(`}`)
}

func (e *walkEncoder) crawlerStep(cs *crawler.CrawlerStep) {
	if cs == nil {
		e.raw("null")
		return
	}
	e.raw(`{"crawler":`)
	e.str(cs.Crawler)
	e.raw(`,"profile":`)
	e.str(cs.Profile)
	e.raw(`,"start_url":`)
	e.str(cs.StartURL)
	e.raw(`,"before":`)
	e.snapshot(cs.Before)
	e.raw(`,"click_index":`)
	e.int(cs.ClickIndex)
	if cs.Clicked != nil {
		e.raw(`,"clicked":`)
		e.element(cs.Clicked)
	}
	if len(cs.NavChain) > 0 {
		e.raw(`,"nav_chain":`)
		encodeSlice(e, cs.NavChain, e.hop)
	}
	if len(cs.Requests) > 0 {
		e.raw(`,"requests":`)
		encodeSlice(e, cs.Requests, e.request)
	}
	if cs.LandedURL != "" {
		e.raw(`,"landed_url":`)
		e.str(cs.LandedURL)
	}
	e.raw(`,"after":`)
	e.snapshot(cs.After)
	if cs.Fail != "" {
		e.raw(`,"fail":`)
		e.str(cs.Fail)
	}
	e.raw(`}`)
}

func (e *walkEncoder) snapshot(s crawler.Snapshot) {
	e.raw(`{"url":`)
	e.str(s.URL)
	if len(s.Cookies) > 0 {
		e.raw(`,"cookies":`)
		encodeSlice(e, s.Cookies, e.cookie)
	}
	if len(s.Local) > 0 {
		e.raw(`,"local":`)
		encodeMap(e, s.Local, e.str)
	}
	e.raw(`}`)
}

func (e *walkEncoder) cookie(c crawler.CookieRecord) {
	e.raw(`{"name":`)
	e.str(c.Name)
	e.raw(`,"value":`)
	e.str(c.Value)
	e.raw(`,"domain":`)
	e.str(c.Domain)
	e.raw(`,"created":`)
	e.time(c.Created)
	e.raw(`,"expires":`) // omitempty never omits a struct
	e.time(c.Expires)
	e.raw(`}`)
}

func (e *walkEncoder) element(el *crawler.Element) {
	e.raw(`{"index":`)
	e.int(el.Index)
	e.raw(`,"kind":`)
	e.str(el.Kind)
	if el.Href != "" {
		e.raw(`,"href":`)
		e.str(el.Href)
	}
	if len(el.AttrNames) > 0 {
		e.raw(`,"attr_names":`)
		encodeSlice(e, el.AttrNames, e.str)
	}
	e.raw(`,"box":`)
	e.rect(el.Box)
	e.raw(`,"xpath":`)
	e.str(el.XPath)
	e.raw(`,"cross_domain":`)
	e.bool(el.CrossDomain)
	e.raw(`}`)
}

func (e *walkEncoder) rect(r dom.Rect) {
	e.raw(`{"X":`)
	e.int(r.X)
	e.raw(`,"Y":`)
	e.int(r.Y)
	e.raw(`,"W":`)
	e.int(r.W)
	e.raw(`,"H":`)
	e.int(r.H)
	e.raw(`}`)
}

func (e *walkEncoder) hop(h browser.Hop) {
	e.raw(`{"URL":`)
	e.str(h.URL)
	e.raw(`,"Status":`)
	e.int(h.Status)
	e.raw(`,"Location":`)
	e.str(h.Location)
	e.raw(`}`)
}

func (e *walkEncoder) request(r browser.RequestRecord) {
	e.raw(`{"URL":`)
	e.str(r.URL)
	e.raw(`,"Kind":`)
	e.str(string(r.Kind))
	e.raw(`,"Referer":`)
	e.str(r.Referer)
	e.raw(`,"Status":`)
	e.int(r.Status)
	e.raw(`,"Err":`)
	e.str(r.Err)
	e.raw(`,"Attempt":`)
	e.int(r.Attempt)
	e.raw(`,"Time":`)
	e.time(r.Time)
	e.raw(`}`)
}

// encodeSlice writes s as an array of elem values, null when s is nil.
func encodeSlice[T any](e *walkEncoder, s []T, elem func(T)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range s {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(v)
	}
	e.buf = append(e.buf, ']')
}

// encodeMap writes m as an object with its keys in sorted order, as
// encoding/json orders them, null when m is nil.
func encodeMap[T any](e *walkEncoder, m map[string]T, elem func(T)) {
	if m == nil {
		e.raw("null")
		return
	}
	var arr [8]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.str(k)
		e.buf = append(e.buf, ':')
		elem(m[k])
	}
	e.buf = append(e.buf, '}')
}

func (e *walkEncoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *walkEncoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

func (e *walkEncoder) bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// time writes t as time.Time.MarshalJSON does: quoted RFC 3339 with
// nanoseconds. The checks are MarshalJSON's own: the year must be four
// digits wide and the zone offset under 24 hours.
func (e *walkEncoder) time(t time.Time) {
	e.buf = append(e.buf, '"')
	n0 := len(e.buf)
	e.buf = t.AppendFormat(e.buf, time.RFC3339Nano)
	b := e.buf
	switch {
	case b[n0+len("9999")] != '-':
		e.bad = true
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		if ('0' <= c && c <= '9') || 10*(b[len(b)-5]-'0')+(b[len(b)-4]-'0') >= 24 {
			e.bad = true
		}
	}
	e.buf = append(e.buf, '"')
}

// str writes s as encoding/json writes a string with HTML escaping on.
func (e *walkEncoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default: // other control bytes, '<', '>' and '&'
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes as they are:
// printable ASCII (and DEL) other than '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()
