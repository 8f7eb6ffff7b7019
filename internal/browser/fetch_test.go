package browser

import (
	"io"
	"log"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/storage"
)

// FuzzCookieHeader checks appendCookieHeader against what one
// http.Request.AddCookie call per cookie builds. The input is a list of
// NUL-separated fields read as name, value, name, value...
func FuzzCookieHeader(f *testing.F) {
	prev := log.Writer()
	log.SetOutput(io.Discard) // AddCookie logs every invalid byte it drops
	f.Cleanup(func() { log.SetOutput(prev) })
	for _, s := range []string{
		"",
		"sid\x00abc",
		"a\x001\x00b\x002\x00c\x003",
		"e\x00",
		"\x00v",
		"sp\x00a b",
		"sp\x00 ",
		"comma\x00x,y",
		"q\x00\"quoted\"",
		"semi\x00a;b",
		"semi\x00;,",
		"bs\x00a\\b",
		"cr\r\nname\x00v\r\nal",
		"nl\nname\x00line\nbreak",
		"ü\x00é€",
		"ctl\x00\x01\x7f\x1f",
		"only\x00\";\\",
		"mix\x00 \"a, b\";\\ü",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		var cs []storage.Cookie
		if list != "" {
			fields := strings.Split(list, "\x00")
			for i := 0; i < len(fields); i += 2 {
				c := storage.Cookie{Name: fields[i]}
				if i+1 < len(fields) {
					c.Value = fields[i+1]
				}
				cs = append(cs, c)
			}
		}
		req := &http.Request{Header: http.Header{}}
		for _, c := range cs {
			req.AddCookie(&http.Cookie{Name: c.Name, Value: c.Value})
		}
		want := req.Header["Cookie"]
		var got []string
		if h := appendCookieHeader(nil, cs); len(cs) > 0 {
			got = []string{string(h)}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cookies %q: header %q, AddCookie builds %q", cs, got, want)
		}
	})
}

// seenRequest is what a recording handler keeps of a request: copies,
// since the request itself is live only until the handler returns.
type seenRequest struct {
	url    url.URL
	urlStr string
	header http.Header
}

// TestRequestIsolation: every fetch of a browser reuses one request, so
// nothing of a fetch may leak into the next one, and nothing a handler
// copied out of a request may change when the next fetch reuses it.
func TestRequestIsolation(t *testing.T) {
	n := netsim.New()
	var seen []seenRequest
	record := func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, seenRequest{url: *r.URL, urlStr: r.URL.String(), header: r.Header.Clone()})
		io.WriteString(w, "ok")
	}
	n.HandleFunc("site.com", record)
	n.HandleFunc("beacon.net", record)
	b := newBrowser(t, n, "u1")
	first := storage.Context{FrameHost: "site.com", TopHost: "site.com"}
	b.Store().SetCookie(first, storage.Cookie{Name: "sid", Value: "abc"})
	b.Store().SetCookie(first, storage.Cookie{Name: "pref", Value: "a b"})

	u1, _ := url.Parse("http://site.com/page?x=1")
	b.SetAttempt(2)
	if _, err := b.fetch(u1, u1.String(), "http://ref.org/from", KindNavigation); err != nil {
		t.Fatal(err)
	}
	b.SetAttempt(0)
	snapshot := seen[0]
	snapshot.header = snapshot.header.Clone()

	u2, _ := url.Parse("http://beacon.net/collect")
	beacon := storage.Context{FrameHost: "beacon.net", TopHost: "site.com"}
	if _, err := b.fetchCtx(u2, u2.String(), "", KindBeacon, beacon); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("handlers saw %d requests, want 2", len(seen))
	}

	want := map[string]string{
		"Cookie":             `pref="a b"; sid=abc`,
		"Referer":            "http://ref.org/from",
		netsim.HeaderAttempt: "2",
		"User-Agent":         DefaultSafariUA,
		HeaderProfile:        "u1",
		HeaderClient:         "u1-client",
		HeaderMachine:        "machine-1",
	}
	if len(seen[0].header) != len(want) {
		t.Errorf("first request headers %v, want exactly %v", seen[0].header, want)
	}
	for k, v := range want {
		if got := seen[0].header.Values(k); len(got) != 1 || got[0] != v {
			t.Errorf("first request %s = %q, want %q", k, got, v)
		}
	}
	if !reflect.DeepEqual(seen[0], snapshot) || seen[0].urlStr != "http://site.com/page?x=1" || seen[0].url.String() != seen[0].urlStr {
		t.Errorf("first request changed after the second fetch: %+v, was %+v", seen[0], snapshot)
	}

	second := seen[1]
	for _, k := range []string{"Cookie", "Referer", netsim.HeaderAttempt} {
		if v, ok := second.header[http.CanonicalHeaderKey(k)]; ok {
			t.Errorf("bare beacon carries %s %q", k, v)
		}
	}
	if second.urlStr != "http://beacon.net/collect" || second.url.RawQuery != "" {
		t.Errorf("bare beacon URL %q (query %q)", second.urlStr, second.url.RawQuery)
	}
	if got := second.header.Get(HeaderProfile); got != "u1" {
		t.Errorf("bare beacon profile header %q", got)
	}
}

// beaconAllocCeiling bounds the heap allocations of one beacon fetch
// with one cookie through fireBeacon: resolving the endpoint, encoding
// its query, printing its URL, listing the cookies into the browser's
// reused list and building their header, the round trip through the
// network (response, body) and the request record. It measured 12 on
// go1.24 linux/amd64. A fresh cookie list per fetch and a printed
// status line per response measured 15, and a fresh request and header
// map per fetch and a url.Values round trip per beacon 35 before that.
// The ceiling leaves about 10% headroom.
const beaconAllocCeiling = 13

func TestBeaconFetchAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled recorders at random")
	}
	n := netsim.New()
	n.HandleFunc("page.com", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "<html></html>") })
	n.HandleFunc("t.net", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	b := newBrowser(t, n, "u1")
	p, err := b.Navigate("http://page.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	b.Store().SetCookie(storage.Context{FrameHost: "t.net", TopHost: "page.com"},
		storage.Cookie{Name: "tid", Value: "xyz", Created: time.Unix(0, 0)})
	allocs := testing.AllocsPerRun(50, func() {
		b.ResetRequests()
		b.fireBeacon(p, "http://t.net/collect", queryParam{"uid", "0123456789abcdef"}, queryParam{"from", "t.net"})
	})
	if got := b.Requests(); len(got) != 1 || got[0].Kind != KindBeacon || got[0].Status != http.StatusOK {
		t.Fatalf("beacon fetch recorded %+v", got)
	}
	t.Logf("beacon fetch: %.1f allocs", allocs)
	if allocs > beaconAllocCeiling {
		t.Fatalf("a beacon fetch allocates %.1f times, ceiling %d", allocs, beaconAllocCeiling)
	}
}

// TestQueryEscapedLen: the builder size encodeQueryStable reserves is
// url.QueryEscape's output length. The escape is per byte, so every
// single byte covers it.
func TestQueryEscapedLen(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := string([]byte{byte(c)})
		if got, want := queryEscapedLen(s), len(url.QueryEscape(s)); got != want {
			t.Errorf("queryEscapedLen(%q) = %d, want %d", s, got, want)
		}
	}
	for _, s := range []string{"", "http://a.com/p?x=1&y=2", "a b+c", "ü€"} {
		if got, want := queryEscapedLen(s), len(url.QueryEscape(s)); got != want {
			t.Errorf("queryEscapedLen(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestEncodeParamsMatchesValues: a beacon's params encode to the bytes
// that Set-ting them in order on a url.Values and encoding that gives.
func TestEncodeParamsMatchesValues(t *testing.T) {
	for _, params := range [][]queryParam{
		nil,
		{{"uid", "abc"}},
		{{"puid", "u"}, {"from", "t.com"}},
		{{"url", "http://a.com/p?x=1&y=two words"}, {"cid", "c1"}},
		{{"url", "first"}, {"url", "second"}},
		{{"tclid", "a"}, {"gclid", "b"}, {"tclid", "a"}, {"tuid", "t"}},
		{{"tuid", "collected"}, {"x", "1"}, {"tuid", "derived"}},
		{{"", ""}, {"", "v"}, {"k", ""}},
		{{"ü", "€"}, {"a&b", "c=d"}},
	} {
		q := url.Values{}
		for _, kv := range params {
			q.Set(kv.name, kv.value)
		}
		want := encodeQueryStable(q)
		if got := encodeParamsStable(slices.Clone(params)); got != want {
			t.Errorf("params %q encode to %q, want %q", params, got, want)
		}
	}
}
