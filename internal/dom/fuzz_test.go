package dom_test

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/web"
)

// FuzzParse feeds arbitrary bytes to Parse. Page bodies come off the
// simulated network, so the parser must take anything: no input may
// panic it, two parses of one input must build deep-equal trees, and the
// tree must be well formed (checkTree). A crawl parses each page into
// the blocks of a released one, so the input is also parsed into a
// document that held the largest seed page, and its first half into one
// that held the input: each result must deep-equal a fresh Parse and be
// well formed, so nothing of the earlier page survives in the reused
// blocks.
// The seeds are pages a small world serves (landing, content, account
// and ad-slot pages), each also truncated mid-document and with a byte
// flipped.
func FuzzParse(f *testing.F) {
	cfg := web.SmallConfig()
	cfg.Seed = 4
	cfg.ConnectFailRate = 0
	w := web.BuildWorld(cfg)
	var urls []string
	var largest string // the largest seed page
	for _, d := range w.SeedersN(2) {
		urls = append(urls, "http://"+d+"/", "http://"+d+"/p/3")
	}
	for _, s := range w.Sites() {
		if s.HasAccount {
			urls = append(urls, "http://"+s.Domain+"/account?atok=tok123")
			break
		}
	}
	for _, tr := range w.Trackers() {
		if tr.ServeHost != "" {
			urls = append(urls, "http://"+tr.ServeHost+"/slot?pub="+w.SeedersN(1)[0]+"&sl=1")
			break
		}
	}
	for _, u := range urls {
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			f.Fatal(err)
		}
		req.Header.Set(ident.HeaderProfile, "u1")
		req.Header.Set(ident.HeaderClient, "c1")
		resp, err := w.Network().RoundTrip(req)
		if err != nil {
			f.Fatal(err)
		}
		body, err := netsim.ReadBody(resp)
		if err != nil {
			f.Fatal(err)
		}
		if !strings.Contains(body, "<") {
			f.Fatalf("%s served no markup: %q", u, body)
		}
		flipped := []byte(body)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(string(flipped))
		if len(body) > len(largest) {
			largest = body
		}
	}
	f.Fuzz(func(t *testing.T, html string) {
		a, b := dom.Parse(html), dom.Parse(html)
		if a == nil {
			t.Fatal("Parse returned nil")
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("two parses of %q differ", html)
		}
		checkTree(t, a)
		d := new(dom.Document)
		for _, pair := range [][2]string{{largest, html}, {html, html[:len(html)/2]}} {
			dom.FillDocument(d, pair[0])
			dom.ResetDocument(d)
			dom.FillDocument(d, pair[1])
			if !reflect.DeepEqual(d.Root(), dom.Parse(pair[1])) {
				t.Fatalf("%.200q parsed into the blocks of %.200q differs from a fresh parse", pair[1], pair[0])
			}
			checkTree(t, d.Root())
			dom.ResetDocument(d)
		}
	})
}

// checkTree checks the structure of a parsed tree: the root has no
// parent, every child's Parent is the node that lists it, every node is
// reachable exactly once, and every non-nil Children and Attrs slice
// has cap == len. Nodes, children and attributes each share one block
// per document, so a slice with spare capacity would let an append to
// one node write into its neighbour's.
func checkTree(t *testing.T, root *dom.Node) {
	t.Helper()
	if root.Parent != nil {
		t.Fatalf("root has parent %p", root.Parent)
	}
	seen := map[*dom.Node]bool{}
	var visit func(n *dom.Node)
	visit = func(n *dom.Node) {
		if seen[n] {
			t.Fatalf("node %p (%q) reached twice", n, n.Tag+n.Text)
		}
		seen[n] = true
		if n.Children != nil && cap(n.Children) != len(n.Children) {
			t.Fatalf("<%s> Children len %d cap %d", n.Tag, len(n.Children), cap(n.Children))
		}
		if n.Attrs != nil && cap(n.Attrs) != len(n.Attrs) {
			t.Fatalf("<%s> Attrs len %d cap %d", n.Tag, len(n.Attrs), cap(n.Attrs))
		}
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("child %q of <%s> has parent %p, want %p", c.Tag+c.Text, n.Tag, c.Parent, n)
			}
			visit(c)
		}
	}
	visit(root)
}
