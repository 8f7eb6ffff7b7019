package web

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"testing"

	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/ident"
	"crumbcruncher/internal/netsim"
)

// pinnedPageDigest is the SHA-256 of every response in pageSample, served
// in order by a fresh small world. It changes only when the bytes the
// synthetic web serves change, which shifts every downstream metric: a
// refactor of page generation must leave it alone.
const pinnedPageDigest = "671e9c7187ef71a2d630e61a6506dbf6c84bb9ef2aa1307754800a4a2b5e56ce"

// pageFetch is one request of the pinned sample.
type pageFetch struct {
	url, client, ua, referer string
}

// pageSample lists a fixed set of requests covering every page generator:
// content pages (static and volatile, several clients, repeated loads
// whose dynamic parts rotate), account pages with and without a token,
// ad slots under both User-Agents, and the SSO host's bare and
// redirecting forms. Targets are chosen from w's plan, so an eager and a
// lazy world of one config yield the same list.
func pageSample(t *testing.T, w *World) []pageFetch {
	t.Helper()
	safari, chrome := "Mozilla/5.0 Version/14.1.2 Safari/605.1.15", "Mozilla/5.0 Chrome/95.0 Safari/537.36"
	var out []pageFetch
	for _, d := range w.SeedersN(12) {
		for _, path := range []string{"/", "/p/3", "/p/17"} {
			for _, client := range []string{"c1", "c2", "c1"} {
				out = append(out, pageFetch{url: "http://" + d + path, client: client, ua: safari})
			}
		}
	}
	seenClass := map[int]bool{}
	var sso *Site
	for _, s := range w.Sites() {
		if s.HasAccount && !seenClass[s.BreakageClass] {
			seenClass[s.BreakageClass] = true
			out = append(out,
				pageFetch{url: "http://" + s.Domain + "/account", client: "c1", ua: safari},
				pageFetch{url: "http://" + s.Domain + "/account?atok=tok123", client: "c1", ua: safari})
		}
		if sso == nil && s.SSOHost != "" && s.HasAccount {
			sso = s
		}
	}
	if len(seenClass) != 4 {
		t.Fatalf("sample covers %d account breakage classes, want all 4", len(seenClass))
	}
	if sso == nil {
		t.Fatal("no SSO site in the sample world")
	}
	out = append(out,
		pageFetch{url: "http://" + sso.SSOHost + "/login", client: "c1", ua: safari},
		pageFetch{url: "http://" + sso.SSOHost + "/login?return=" + url.QueryEscape("http://"+sso.Domain+"/account"), client: "c1", ua: safari})
	slots := 0
	for _, tr := range w.Trackers() {
		if tr.ServeHost == "" || slots == 3 {
			continue
		}
		slots++
		pub := w.SeedersN(1)[0]
		for _, ua := range []string{safari, chrome} {
			for _, client := range []string{"c1", "c2", "c1"} {
				out = append(out, pageFetch{
					url:    fmt.Sprintf("http://%s/slot?pub=%s&sl=%d", tr.ServeHost, pub, slots),
					client: client, ua: ua, referer: "http://" + pub + "/",
				})
			}
		}
	}
	if slots == 0 {
		t.Fatal("no ad network in the sample world")
	}
	return out
}

// digestPages serves the sample through w's network and hashes status,
// headers and body of every response. It also reports how many bodies
// were volatile and static content pages, so the test can insist the
// sample covers both.
func digestPages(t *testing.T, w *World, sample []pageFetch) (digest string, volatile, static int) {
	t.Helper()
	h := sha256.New()
	for _, f := range sample {
		req, err := http.NewRequest(http.MethodGet, f.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("User-Agent", f.ua)
		req.Header.Set(ident.HeaderProfile, "u1")
		req.Header.Set(ident.HeaderClient, f.client)
		req.Header.Set(ident.HeaderMachine, "m1")
		if f.referer != "" {
			req.Header.Set("Referer", f.referer)
		}
		resp, err := w.Network().RoundTrip(req)
		if err != nil {
			t.Fatalf("GET %s: %v", f.url, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		writeResponse(h, f.url, resp, body)
		if strings.Contains(string(body), `<nav id="top"><a href="/p/`) {
			if strings.Contains(string(body), `class="recommended"`) {
				static++
			} else {
				volatile++
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), volatile, static
}

func writeResponse(h hash.Hash, url string, resp *http.Response, body []byte) {
	fmt.Fprintf(h, "%s\n%s\n", url, resp.Status)
	keys := make([]string, 0, len(resp.Header))
	for k := range resp.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range resp.Header[k] {
			fmt.Fprintf(h, "%s: %s\n", k, v)
		}
	}
	fmt.Fprintf(h, "%d\n", len(body))
	h.Write(body)
}

// TestPageBytesPinned pins the exact bytes the synthetic web serves, for
// an eager and a lazy world alike. Seed 4 is the small world whose
// account pages span all four breakage classes.
func TestPageBytesPinned(t *testing.T) {
	cfg := SmallConfig()
	cfg.Seed = 4
	cfg.ConnectFailRate = 0
	eager := BuildWorld(cfg)
	cfg.Lazy = true
	lazy := BuildWorld(cfg)
	sample := pageSample(t, eager)
	for _, tc := range []struct {
		name string
		w    *World
	}{{"eager", eager}, {"lazy", lazy}} {
		got, volatile, static := digestPages(t, tc.w, sample)
		if volatile == 0 || static == 0 {
			t.Fatalf("%s: sample has %d volatile and %d static content pages, want both", tc.name, volatile, static)
		}
		if got != pinnedPageDigest {
			t.Errorf("%s world: page digest = %s, want %s", tc.name, got, pinnedPageDigest)
		}
	}
}

// pageLoader serves, reads and parses the landing pages of a small
// world's first twelve seeders, as the crawl loads a page: the body is
// parsed into a pooled document, which is released when the page is
// dropped.
type pageLoader struct {
	w     *World
	reqs  []*http.Request
	nodes int
}

func newPageLoader(t *testing.T) *pageLoader {
	t.Helper()
	cfg := SmallConfig()
	cfg.Seed = 4
	cfg.ConnectFailRate = 0
	l := &pageLoader{w: BuildWorld(cfg)}
	for _, d := range l.w.SeedersN(12) {
		req, err := http.NewRequest(http.MethodGet, "http://"+d+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ident.HeaderProfile, "u1")
		req.Header.Set(ident.HeaderClient, "c1")
		l.reqs = append(l.reqs, req)
	}
	return l
}

// load serves, reads, parses and releases every page once.
func (l *pageLoader) load(t *testing.T) {
	for _, req := range l.reqs {
		resp, err := l.w.Network().RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := netsim.ReadBody(resp)
		if err != nil {
			t.Fatal(err)
		}
		doc := dom.ParseDocument(body)
		l.nodes += len(doc.Root().Children)
		doc.Release()
	}
}

// pageAllocCeiling bounds the mean heap allocations of serving one
// content page through the network, reading its body, parsing it and
// releasing the parsed document. It measured 58.4 on go1.24
// linux/amd64. Parsing into three fresh blocks per page measured 61.4,
// and 63.4 while netsim still printed every status line; a node arena
// with a growing child slice per parent measured 85.2, and building
// each page as a tree, rendering it and copying the bytes on to the
// parser 205.8 before that. The ceiling leaves about 10% headroom.
const pageAllocCeiling = 64

func TestPageAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled recorders at random")
	}
	l := newPageLoader(t)
	allocs := testing.AllocsPerRun(20, func() { l.load(t) })
	if l.nodes == 0 {
		t.Fatal("pages parsed to empty documents")
	}
	perPage := allocs / float64(len(l.reqs))
	t.Logf("serve+read+parse+release: %.1f allocs per page", perPage)
	if perPage > pageAllocCeiling {
		t.Fatalf("serve+read+parse+release allocates %.1f times per page, ceiling %d", perPage, pageAllocCeiling)
	}
}

// pageByteCeiling bounds the mean bytes allocated by serving, reading,
// parsing and releasing one page of the same sample. Once the pools are
// warm a page allocates its body and its decoded strings, not its tree:
// it measured 3,420–3,470 on go1.24 linux/amd64, where parsing into
// three fresh blocks per page measured 9,270. The ceiling leaves about
// 10% headroom.
const pageByteCeiling = 3800

func TestPageBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled documents at random")
	}
	const rounds = 20
	l := newPageLoader(t)
	l.load(t) // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		l.load(t)
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(l.reqs))
	t.Logf("serve+read+parse+release: %.0f bytes per page", perPage)
	if perPage > pageByteCeiling {
		t.Fatalf("serve+read+parse+release allocates %.0f bytes per page, ceiling %d", perPage, pageByteCeiling)
	}
}
