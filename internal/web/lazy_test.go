package web

import (
	"io"
	"net/http"
	"reflect"
	"testing"
)

func lazyPair(t *testing.T) (*World, *World) {
	t.Helper()
	cfg := SmallConfig()
	cfg.ConnectFailRate = 0
	eager := BuildWorld(cfg)
	cfg.Lazy = true
	lazy := BuildWorld(cfg)
	return eager, lazy
}

func TestLazyWorldStartsEmpty(t *testing.T) {
	cfg := SmallConfig()
	cfg.Lazy = true
	w := BuildWorld(cfg)
	w.cache.mu.RLock()
	n := len(w.cache.byIdx)
	w.cache.mu.RUnlock()
	if n != 0 {
		t.Fatalf("lazy world materialised %d sites before any visit", n)
	}
	// Touching one host materialises that site only.
	first := w.SeedersN(1)[0]
	if w.Site(first) == nil {
		t.Fatalf("Site(%q) = nil", first)
	}
	w.cache.mu.RLock()
	n = len(w.cache.byIdx)
	w.cache.mu.RUnlock()
	if n != 1 {
		t.Fatalf("after one lookup cache holds %d sites, want 1", n)
	}
}

func TestLazyWorldMatchesEager(t *testing.T) {
	eager, lazy := lazyPair(t)

	es, ls := eager.Sites(), lazy.Sites()
	if len(es) != len(ls) {
		t.Fatalf("site counts: eager=%d lazy=%d", len(es), len(ls))
	}
	for i := range es {
		if !reflect.DeepEqual(es[i], ls[i]) {
			t.Fatalf("site %d (%s) differs between eager and lazy:\neager: %+v\nlazy:  %+v",
				i, es[i].Domain, es[i], ls[i])
		}
	}
	if !reflect.DeepEqual(eager.Seeders(), lazy.Seeders()) {
		t.Fatal("seeder lists differ")
	}
	if !reflect.DeepEqual(eager.Truth().UIDParams(), lazy.Truth().UIDParams()) {
		t.Fatal("UID param sets differ")
	}
	if !reflect.DeepEqual(eager.Truth().DedicatedHosts(), lazy.Truth().DedicatedHosts()) {
		t.Fatal("dedicated host sets differ")
	}
	if !reflect.DeepEqual(eager.Organizations(), lazy.Organizations()) {
		t.Fatal("organization maps differ")
	}
	if !reflect.DeepEqual(eager.Categories(), lazy.Categories()) {
		t.Fatal("category maps differ")
	}
	if !reflect.DeepEqual(eager.Fingerprinters(), lazy.Fingerprinters()) {
		t.Fatal("fingerprinter lists differ")
	}
	if !reflect.DeepEqual(eager.EntityListDomains(), lazy.EntityListDomains()) {
		t.Fatal("entity lists differ")
	}
	if !reflect.DeepEqual(eager.DisconnectList(), lazy.DisconnectList()) {
		t.Fatal("disconnect lists differ")
	}
	if !reflect.DeepEqual(eager.EasyListRules(), lazy.EasyListRules()) {
		t.Fatal("easylist rules differ")
	}
}

// TestLazyWorldServesIdenticalPages fetches the same URLs through both
// networks. The lazy world has never seen these hosts, so the fetch
// exercises the resolver path end to end.
func TestLazyWorldServesIdenticalPages(t *testing.T) {
	eager, lazy := lazyPair(t)
	ec := &http.Client{Transport: eager.Network()}
	lc := &http.Client{Transport: lazy.Network()}

	fetch := func(c *http.Client, url string) string {
		t.Helper()
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Transport.RoundTrip(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Status + "\n" + string(b)
	}

	for _, d := range eager.SeedersN(8) {
		url := "http://" + d + "/"
		if e, l := fetch(ec, url), fetch(lc, url); e != l {
			t.Fatalf("page bytes differ for %s:\neager: %.200q\nlazy:  %.200q", url, e, l)
		}
	}
}
