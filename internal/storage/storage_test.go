package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var now = time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)

func firstParty(host string) Context { return Context{FrameHost: host, TopHost: host} }

func TestFirstPartyAlwaysAccessible(t *testing.T) {
	for _, p := range []Policy{Flat, Partitioned, Blocked} {
		s := New(p)
		s.SetCookie(firstParty("shop.example.com"), Cookie{Name: "uid", Value: "u1", Created: now})
		got := s.Cookies(firstParty("www.example.com"), now)
		if len(got) != 1 || got[0].Value != "u1" {
			t.Fatalf("policy %v: first-party cookie not visible across subdomains: %v", p, got)
		}
	}
}

func TestFlatThirdPartySharedAcrossSites(t *testing.T) {
	s := New(Flat)
	// tracker.com embedded on a.com writes; read back on b.com.
	s.SetCookie(Context{FrameHost: "tracker.com", TopHost: "a.com"}, Cookie{Name: "uid", Value: "x", Created: now})
	got := s.Cookies(Context{FrameHost: "tracker.com", TopHost: "b.com"}, now)
	if len(got) != 1 || got[0].Value != "x" {
		t.Fatalf("flat storage must share across top-level sites: %v", got)
	}
}

func TestPartitionedThirdPartyIsolatedPerSite(t *testing.T) {
	s := New(Partitioned)
	s.SetCookie(Context{FrameHost: "tracker.com", TopHost: "a.com"}, Cookie{Name: "uid", Value: "x", Created: now})
	if got := s.Cookies(Context{FrameHost: "tracker.com", TopHost: "b.com"}, now); len(got) != 0 {
		t.Fatalf("partitioned storage leaked across sites: %v", got)
	}
	// Same partition still works.
	if got := s.Cookies(Context{FrameHost: "tracker.com", TopHost: "a.com"}, now); len(got) != 1 {
		t.Fatalf("partitioned storage lost its own bucket: %v", got)
	}
}

func TestBlockedThirdPartyCookiesDropped(t *testing.T) {
	s := New(Blocked)
	ctx := Context{FrameHost: "tracker.com", TopHost: "a.com"}
	s.SetCookie(ctx, Cookie{Name: "uid", Value: "x", Created: now})
	if got := s.Cookies(ctx, now); got != nil {
		t.Fatalf("blocked third-party cookies must be dropped: %v", got)
	}
	// localStorage is partitioned, not blocked.
	s.SetLocal(ctx, "k", "v")
	if v, ok := s.GetLocal(ctx, "k"); !ok || v != "v" {
		t.Fatal("blocked policy should still allow partitioned localStorage")
	}
	if _, ok := s.GetLocal(Context{FrameHost: "tracker.com", TopHost: "b.com"}, "k"); ok {
		t.Fatal("localStorage leaked across partitions under Blocked")
	}
}

func TestRedirectorFirstPartyExploit(t *testing.T) {
	// The core mechanism of UID smuggling: a redirector visited as the
	// top-level page stores first-party cookies even under partitioning,
	// and sees the SAME bucket no matter which site the user came from.
	s := New(Partitioned)
	s.SetCookie(firstParty("smuggler.net"), Cookie{Name: "aggr", Value: "uid-from-a", Created: now})
	got := s.Cookies(firstParty("smuggler.net"), now)
	if len(got) != 1 || got[0].Value != "uid-from-a" {
		t.Fatal("redirector must keep one first-party bucket across navigations")
	}
}

func TestCookieExpiry(t *testing.T) {
	s := New(Partitioned)
	ctx := firstParty("a.com")
	s.SetCookie(ctx, Cookie{Name: "short", Value: "v", Created: now, Expires: now.Add(time.Hour)})
	s.SetCookie(ctx, Cookie{Name: "session", Value: "v", Created: now})
	if got := s.Cookies(ctx, now.Add(30*time.Minute)); len(got) != 2 {
		t.Fatalf("before expiry: %d cookies", len(got))
	}
	got := s.Cookies(ctx, now.Add(2*time.Hour))
	if len(got) != 1 || got[0].Name != "session" {
		t.Fatalf("after expiry: %v", got)
	}
}

func TestCookieOverwrite(t *testing.T) {
	s := New(Flat)
	ctx := firstParty("a.com")
	s.SetCookie(ctx, Cookie{Name: "uid", Value: "old", Created: now})
	s.SetCookie(ctx, Cookie{Name: "uid", Value: "new", Created: now})
	got := s.Cookies(ctx, now)
	if len(got) != 1 || got[0].Value != "new" {
		t.Fatalf("overwrite failed: %v", got)
	}
}

func TestCookiesSortedByName(t *testing.T) {
	s := New(Flat)
	ctx := firstParty("a.com")
	for _, name := range []string{"zeta", "alpha", "mid"} {
		s.SetCookie(ctx, Cookie{Name: name, Value: "v", Created: now})
	}
	got := s.Cookies(ctx, now)
	if got[0].Name != "alpha" || got[1].Name != "mid" || got[2].Name != "zeta" {
		t.Fatalf("not sorted: %v", got)
	}
}

func TestCookieLookup(t *testing.T) {
	s := New(Partitioned)
	ctx := firstParty("a.com")
	s.SetCookie(ctx, Cookie{Name: "uid", Value: "u", Created: now})
	if c, ok := s.Cookie(ctx, "uid", now); !ok || c.Value != "u" {
		t.Fatal("Cookie lookup failed")
	}
	if _, ok := s.Cookie(ctx, "missing", now); ok {
		t.Fatal("missing cookie reported present")
	}
}

func TestLocalStoragePolicies(t *testing.T) {
	flat := New(Flat)
	flat.SetLocal(Context{FrameHost: "t.com", TopHost: "a.com"}, "k", "v")
	if _, ok := flat.GetLocal(Context{FrameHost: "t.com", TopHost: "b.com"}, "k"); !ok {
		t.Fatal("flat localStorage should be shared")
	}
	part := New(Partitioned)
	part.SetLocal(Context{FrameHost: "t.com", TopHost: "a.com"}, "k", "v")
	if _, ok := part.GetLocal(Context{FrameHost: "t.com", TopHost: "b.com"}, "k"); ok {
		t.Fatal("partitioned localStorage leaked")
	}
}

func TestLocalReturnsCopy(t *testing.T) {
	s := New(Flat)
	ctx := firstParty("a.com")
	s.SetLocal(ctx, "k", "v")
	m := s.Local(ctx)
	m["k"] = "tampered"
	if v, _ := s.GetLocal(ctx, "k"); v != "v" {
		t.Fatal("Local must return a copy")
	}
}

func TestFirstPartySnapshotHelpers(t *testing.T) {
	s := New(Partitioned)
	s.SetCookie(firstParty("a.com"), Cookie{Name: "uid", Value: "u", Created: now})
	s.SetLocal(firstParty("a.com"), "ls", "lv")
	// Third-party bucket must not appear in the first-party snapshot.
	s.SetCookie(Context{FrameHost: "t.com", TopHost: "a.com"}, Cookie{Name: "tp", Value: "x", Created: now})
	cookies := s.Cookies(firstParty("www.a.com"), now)
	if len(cookies) != 1 || cookies[0].Name != "uid" {
		t.Fatalf("snapshot cookies = %v", cookies)
	}
	local := s.FirstPartyLocal("a.com")
	if len(local) != 1 || local["ls"] != "lv" {
		t.Fatalf("snapshot local = %v", local)
	}
}

func TestCookieCount(t *testing.T) {
	s := New(Flat)
	s.SetCookie(firstParty("b.com"), Cookie{Name: "x", Created: now})
	s.SetCookie(firstParty("a.com"), Cookie{Name: "y", Created: now})
	s.SetLocal(firstParty("c.com"), "k", "v")
	if s.CookieCount() != 2 {
		t.Fatalf("CookieCount = %d", s.CookieCount())
	}
}

func TestPolicyString(t *testing.T) {
	if Flat.String() != "flat" || Partitioned.String() != "partitioned" || Blocked.String() != "blocked" {
		t.Fatal("policy names wrong")
	}
	if Policy(99).String() != "unknown" {
		t.Fatal("unknown policy name")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(Partitioned)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := firstParty(fmt.Sprintf("site%d.com", w%4))
			for i := 0; i < 100; i++ {
				s.SetCookie(ctx, Cookie{Name: fmt.Sprintf("c%d", i), Value: "v", Created: now})
				s.Cookies(ctx, now)
				s.SetLocal(ctx, "k", "v")
				s.Local(ctx)
			}
		}(w)
	}
	wg.Wait()
	if s.CookieCount() != 400 {
		t.Fatalf("CookieCount = %d, want 400", s.CookieCount())
	}
}
