package crawler

import (
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"crumbcruncher/internal/browser"
	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/web"
)

func anchor(href string, box dom.Rect, xpath string) Element {
	return Element{Kind: "a", Href: href, AttrNames: []string{"href"}, Box: box, XPath: xpath}
}

func iframe(attrs []string, box dom.Rect, xpath string) Element {
	return Element{Kind: "iframe", AttrNames: attrs, Box: box, XPath: xpath}
}

func TestHeuristic1HrefIgnoresQuery(t *testing.T) {
	a := anchor("http://x.com/p?uid=alice", dom.Rect{X: 0, Y: 10, W: 100, H: 20}, "/a[1]")
	b := anchor("http://x.com/p?uid=bob", dom.Rect{X: 5, Y: 99, W: 50, H: 10}, "/div[1]/a[1]")
	if !SameElement(a, b) {
		t.Fatal("same href modulo query must match (decorated UIDs differ per crawler)")
	}
	c := anchor("http://y.com/p", dom.Rect{}, "/a[2]")
	if SameElement(a, c) {
		t.Fatal("different href, box and x-path must not match")
	}
}

func TestHeuristic2BoxIgnoresY(t *testing.T) {
	attrs := []string{"src", "width", "height"}
	a := iframe(attrs, dom.Rect{X: 10, Y: 100, W: 300, H: 250}, "/div[1]/iframe[1]")
	b := iframe(attrs, dom.Rect{X: 10, Y: 400, W: 300, H: 250}, "/div[2]/iframe[1]")
	if !SameElement(a, b) {
		t.Fatal("same attrs + box modulo y must match")
	}
	c := iframe(attrs, dom.Rect{X: 10, Y: 100, W: 728, H: 90}, "/div[1]/iframe[1]")
	// Different size — but same xpath, so heuristic 3 fires. Mask it.
	if sameElementWith(a, c, Heuristics{Box: true}) {
		t.Fatal("different width/height must not match via heuristic 2")
	}
	d := iframe([]string{"src", "class"}, dom.Rect{X: 10, Y: 100, W: 300, H: 250}, "/div[9]/iframe[1]")
	if SameElement(a, d) {
		t.Fatal("different attribute names must not match")
	}
}

func TestHeuristic3XPath(t *testing.T) {
	attrs := []string{"src"}
	a := iframe(attrs, dom.Rect{X: 0, Y: 0, W: 100, H: 50}, "/body[1]/iframe[2]")
	b := iframe(attrs, dom.Rect{X: 999, Y: 999, W: 1, H: 1}, "/body[1]/iframe[2]")
	if !SameElement(a, b) {
		t.Fatal("same attrs + xpath must match")
	}
	c := iframe(attrs, dom.Rect{}, "/body[1]/iframe[3]")
	if sameElementWith(a, c, Heuristics{XPath: true}) {
		t.Fatal("different xpath must not match via heuristic 3")
	}
}

func TestKindMismatchNeverMatches(t *testing.T) {
	a := Element{Kind: "a", Href: "http://x.com/", AttrNames: []string{"href"}}
	f := Element{Kind: "iframe", AttrNames: []string{"href"}}
	if SameElement(a, f) {
		t.Fatal("anchor and iframe must never match")
	}
}

func TestMatchElementsTripleGreedy(t *testing.T) {
	// Each logical element carries a distinct attribute-name set so only
	// heuristic 1 (href) can match, making cross-index matching
	// observable.
	mk := func(hrefs ...string) []Element {
		var out []Element
		for i, h := range hrefs {
			u, _ := url.Parse(h)
			e := anchor(h, dom.Rect{X: i * 10, W: 100, H: 20}, "/a[1]")
			e.AttrNames = []string{"href", "data-" + u.Hostname()}
			e.Index = i
			out = append(out, e)
		}
		return out
	}
	lists := map[string][]Element{
		Safari1: mk("http://a.com/x", "http://b.com/y?u=1", "http://only1.com/"),
		Safari2: mk("http://b.com/y?u=2", "http://a.com/x"),
		Chrome3: mk("http://c.com/z", "http://a.com/x", "http://b.com/y?u=3"),
	}
	got := MatchElements(lists, AllHeuristics)
	if len(got) != 2 {
		t.Fatalf("matches = %d, want 2", len(got))
	}
	// First match is a.com/x (document order of Safari-1).
	if got[0].Indices[Safari1] != 0 || got[0].Indices[Safari2] != 1 || got[0].Indices[Chrome3] != 1 {
		t.Fatalf("match 0 indices wrong: %+v", got[0].Indices)
	}
	if got[1].Indices[Safari1] != 1 || got[1].Indices[Safari2] != 0 || got[1].Indices[Chrome3] != 2 {
		t.Fatalf("match 1 indices wrong: %+v", got[1].Indices)
	}
}

func TestMatchElementsNoDoubleUse(t *testing.T) {
	// Two identical elements in list 1 must not both claim the single
	// instance in lists 2/3.
	dup := anchor("http://a.com/x", dom.Rect{W: 100, H: 20}, "/a[1]")
	l1 := []Element{dup, dup}
	l1[1].Index = 1
	lists := map[string][]Element{
		Safari1: l1,
		Safari2: {anchor("http://a.com/x", dom.Rect{W: 100, H: 20}, "/a[1]")},
		Chrome3: {anchor("http://a.com/x", dom.Rect{W: 100, H: 20}, "/a[1]")},
	}
	if got := MatchElements(lists, AllHeuristics); len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
}

func TestHrefSansQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://x.com/p?a=1&b=2", "http://x.com/p"},
		{"http://x.com/p#frag", "http://x.com/p"},
		{"/rel/path?q=1", "/rel/path"},
		{"", ""},
	}
	for _, c := range cases {
		if got := hrefSansQuery(c.in); got != c.want {
			t.Errorf("hrefSansQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestListMatchingEqualsPairwise: MatchElements and MatchPair compute
// each href key once per list; their results must equal the greedy
// alignment computed with the pairwise sameElementWith, under every
// heuristic mask, over generated lists whose signals collide often.
func TestListMatchingEqualsPairwise(t *testing.T) {
	rng := stats.NewRNG(3)
	hrefs := []string{"", "http://a.com/x", "http://a.com/x?u=1", "http://a.com/x#f", "http://b.com/",
		"/rel?q=2", "/rel", "?only=query", "#frag", "http://a.com/%zz", "http://b.com/?u=9"}
	attrSets := [][]string{{"href"}, {"href", "class"}, {"src", "width", "height"}}
	xpaths := []string{"", "/html[1]/body[1]/a[1]", "/html[1]/body[1]/a[2]"}
	gen := func() []Element {
		out := make([]Element, rng.Intn(9))
		for i := range out {
			e := Element{Index: i, Kind: "a", AttrNames: attrSets[rng.Intn(len(attrSets))],
				Box:   dom.Rect{X: 10 * rng.Intn(2), Y: rng.Intn(100), W: 100 * rng.Intn(2), H: 20},
				XPath: xpaths[rng.Intn(len(xpaths))], CrossDomain: rng.Intn(2) == 0}
			if rng.Intn(4) == 0 {
				e.Kind = "iframe"
			} else {
				e.Href = hrefs[rng.Intn(len(hrefs))]
			}
			out[i] = e
		}
		return out
	}
	pairwise := func(e Element, list []Element, used []bool, h Heuristics) int {
		for i, cand := range list {
			if !used[i] && sameElementWith(e, cand, h) {
				return i
			}
		}
		return -1
	}
	for round := 0; round < 400; round++ {
		l1, l2, l3 := gen(), gen(), gen()
		for mask := 0; mask < 8; mask++ {
			h := Heuristics{Href: mask&1 != 0, Box: mask&2 != 0, XPath: mask&4 != 0}

			used := make([]bool, len(l2))
			var wantPair []int
			for _, e := range l1 {
				j := pairwise(e, l2, used, h)
				if j >= 0 {
					used[j] = true
				}
				wantPair = append(wantPair, j)
			}
			if got := MatchPair(l1, l2, h); fmt.Sprint(got) != fmt.Sprint(wantPair) {
				t.Fatalf("round %d mask %03b: MatchPair = %v, pairwise %v", round, mask, got, wantPair)
			}

			used2, used3 := make([]bool, len(l2)), make([]bool, len(l3))
			var wantTriples []MatchTriple
			for _, e := range l1 {
				i2, i3 := pairwise(e, l2, used2, h), pairwise(e, l3, used3, h)
				if i2 < 0 || i3 < 0 {
					continue
				}
				used2[i2], used3[i3] = true, true
				wantTriples = append(wantTriples, MatchTriple{
					Indices:     map[string]int{Safari1: e.Index, Safari2: l2[i2].Index, Chrome3: l3[i3].Index},
					Kind:        e.Kind,
					CrossDomain: e.CrossDomain,
				})
			}
			got := MatchElements(map[string][]Element{Safari1: l1, Safari2: l2, Chrome3: l3}, h)
			if !reflect.DeepEqual(got, wantTriples) {
				t.Fatalf("round %d mask %03b: MatchElements = %+v, pairwise %+v", round, mask, got, wantTriples)
			}
		}
	}
}

// TestHrefKeyMatchesHrefSansQuery checks that the heuristic-1 key the
// browser derives while enumerating a page equals hrefSansQuery of the
// element's href, for every anchor on a small world's seeder pages and
// for hand-written hrefs covering the URL forms the seeders lack.
func TestHrefKeyMatchesHrefSansQuery(t *testing.T) {
	check := func(c browser.Clickable) {
		t.Helper()
		if want := hrefSansQuery(c.Href); c.HrefKey != want {
			t.Errorf("href %q: browser key %q, hrefSansQuery %q", c.Href, c.HrefKey, want)
		}
		if got, want := hrefKeys([]Element{elementFrom(c, false)})[0], hrefSansQuery(c.Href); got != want {
			t.Errorf("href %q: hrefKeys %q, hrefSansQuery %q", c.Href, got, want)
		}
	}

	cfg := web.SmallConfig()
	cfg.ConnectFailRate = 0
	w := web.BuildWorld(cfg)
	b := browser.New(browser.Config{Seed: cfg.Seed, ProfileID: "p", ClientID: "c", Network: w.Network()})
	anchors := 0
	for _, d := range w.Seeders() {
		page, err := b.Navigate("http://"+d+"/", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range b.Clickables(page) {
			if c.Kind == "a" {
				anchors++
				check(c)
			}
		}
	}
	if anchors == 0 {
		t.Fatal("no anchors on the seeder pages")
	}

	rows := []string{
		"next/page?uid=1",                   // relative path
		"//other.example/p?uid=2",           // network-path reference
		"?q=3",                              // query only
		"#frag",                             // fragment only
		"HTTP://Upper.Example/Path?uid=4",   // upper-case scheme
		"http://rows.example:8080/p?uid=5",  // port
		"/a%20b/c%2Fd?uid=6#fr%20ag",        // escapes in path and fragment
		"http://rows.example/x?uid=7#f%2Fg", // escaped fragment with a query
	}
	n := netsim.New()
	n.HandleFunc("rows.example", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprint(rw, "<html><body>")
		for _, h := range rows {
			fmt.Fprintf(rw, "<a href=%q>x</a>", h)
		}
		fmt.Fprint(rw, "</body></html>")
	})
	rb := browser.New(browser.Config{ProfileID: "p", ClientID: "c", Network: n})
	page, err := rb.Navigate("http://rows.example/dir/page?x=1", "")
	if err != nil {
		t.Fatal(err)
	}
	cs := rb.Clickables(page)
	if len(cs) != len(rows) {
		t.Fatalf("page lists %d clickables, want %d", len(cs), len(rows))
	}
	for _, c := range cs {
		check(c)
	}
}

// TestRecordedClickLeavesBodyFree checks that the element a step record
// keeps of a click holds no substring of the clicked page's body: its
// strings' bytes lie outside the body, where the enumerated element's
// href and attribute names lie inside it.
func TestRecordedClickLeavesBodyFree(t *testing.T) {
	const marker = "body-marker"
	const body = `<html><body><p id="` + marker + `">x</p>` +
		`<a id="m" class="ad" href="http://b.example/x?u=1">x</a></body></html>`
	n := netsim.New()
	n.HandleFunc("a.example", func(rw http.ResponseWriter, r *http.Request) { fmt.Fprint(rw, body) })
	b := browser.New(browser.Config{ProfileID: "p", ClientID: "c", Network: n})
	page, err := b.Navigate("http://a.example/", "")
	if err != nil {
		t.Fatal(err)
	}
	// The body's bytes, located through the marker, a substring of it.
	p, ok := page.Doc.ElementsByTag("p")[0].Attr("id")
	if !ok || p != marker {
		t.Fatalf("page has no marker paragraph: %q", p)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(p))) - uintptr(strings.Index(body, marker))
	hi := lo + uintptr(len(body))
	inBody := func(s string) bool {
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && lo <= at && at < hi
	}
	cs := b.Clickables(page)
	if len(cs) != 1 {
		t.Fatalf("page lists %d clickables, want 1", len(cs))
	}
	e := elementFrom(cs[0], true)
	if !inBody(e.Href) || !inBody(e.AttrNames[0]) {
		t.Fatal("the enumerated element's strings are not substrings of the body; the check below would prove nothing")
	}
	rec := recorded(e)
	if !reflect.DeepEqual(*rec, e) {
		t.Fatalf("recorded element %+v differs from the enumerated %+v", *rec, e)
	}
	strs := append([]string{rec.Kind, rec.Href, rec.XPath}, rec.AttrNames...)
	for _, s := range strs {
		if inBody(s) {
			t.Errorf("recorded string %q lies inside the page body", s)
		}
	}
}
