package publicsuffix

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPublicSuffix(t *testing.T) {
	cases := []struct{ host, want string }{
		{"example.com", "com"},
		{"a.b.example.com", "com"},
		{"example.co.uk", "co.uk"},
		{"www.example.co.uk", "co.uk"},
		{"kuwosm.world.tmall.com", "com"},
		{"btds.zog.link", "link"},
		{"com", "com"},
		{"unknown-tld-host.zz", "zz"}, // no rule: last label
		{"foo.bar.ck", "bar.ck"},      // wildcard *.ck
		{"www.ck", "ck"},              // exception !www.ck
	}
	for _, c := range cases {
		if got := Default().PublicSuffix(c.host); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestRegisteredDomain(t *testing.T) {
	cases := []struct{ host, want string }{
		{"example.com", "example.com"},
		{"a.b.example.com", "example.com"},
		{"adclick.g.doubleclick.net", "doubleclick.net"},
		{"www.example.co.uk", "example.co.uk"},
		{"com", ""}, // bare public suffix: nothing registrable
		{"", ""},
		{"foo.bar.ck", "foo.bar.ck"}, // *.ck: bar.ck is the suffix... foo.bar.ck registrable
		{"a.foo.bar.ck", "foo.bar.ck"},
		{"www.ck", "www.ck"}, // exception: www.ck itself is registrable
		{"sub.www.ck", "www.ck"},
		{"Example.COM.", "example.com"},     // normalization
		{"example.com:8080", "example.com"}, // port stripping
		{"a.com:80.", "a.com"},              // a port before a trailing dot
	}
	for _, c := range cases {
		if got := RegisteredDomain(c.host); got != c.want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestSameSite(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"a.example.com", "b.example.com", true},
		{"example.com", "example.com", true},
		{"example.com", "example.net", false},
		{"foo.co.uk", "bar.co.uk", false},
		{"com", "com", true}, // degenerate: identical non-registrable
		{"com", "net", false},
	}
	for _, c := range cases {
		if got := SameSite(c.a, c.b); got != c.want {
			t.Errorf("SameSite(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCustomList(t *testing.T) {
	l := MustCompile([]string{"internal", "corp.internal"})
	if got := l.RegisteredDomain("svc.team.corp.internal"); got != "team.corp.internal" {
		t.Fatalf("got %q", got)
	}
}

func TestCompileSkipsCommentsAndBlanks(t *testing.T) {
	l, err := Compile([]string{"// comment", "", "  com  "})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.RegisteredDomain("x.com"); got != "x.com" {
		t.Fatalf("got %q", got)
	}
}

// Property: the registered domain of a host is always a suffix of the host
// and never empty for hosts with >= 2 labels ending in a known TLD.
func TestRegisteredDomainSuffixProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		labels := []string{"aa", "bb", "cc", "dd"}
		host := labels[a%4] + "." + labels[b%4] + ".example.com"
		rd := RegisteredDomain(host)
		return rd == "example.com"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SameSite is symmetric and reflexive.
func TestSameSiteSymmetric(t *testing.T) {
	hosts := []string{"a.x.com", "b.x.com", "x.com", "y.net", "z.co.uk", "com"}
	for _, a := range hosts {
		if !SameSite(a, a) {
			t.Errorf("SameSite(%q, %q) not reflexive", a, a)
		}
		for _, b := range hosts {
			if SameSite(a, b) != SameSite(b, a) {
				t.Errorf("SameSite(%q, %q) not symmetric", a, b)
			}
		}
	}
}

// memoHosts exercises the normalization and rule paths the memo must
// answer for exactly as the unmemoized lookup does.
var memoHosts = []string{
	"example.com", "WWW.Example.COM", "example.com.", "Example.COM.",
	"example.com:8080", "a.b.example.co.uk", "foo.bar.ck", "a.foo.bar.ck",
	"www.ck", "sub.www.ck", "ck", "com", "co.uk", "", " ", ".", "a.com:80.",
	"unknown-tld-host.zz", "[::1]:80", "localhost",
}

// TestMemoMatchesFreshList checks that a warm memo answers every host
// exactly as a freshly compiled list does on its first lookup.
func TestMemoMatchesFreshList(t *testing.T) {
	warm := MustCompile(defaultRules)
	for _, h := range memoHosts {
		warm.RegisteredDomain(h)
	}
	for _, h := range memoHosts {
		fresh := MustCompile(defaultRules)
		if got, want := warm.RegisteredDomain(h), fresh.RegisteredDomain(h); got != want {
			t.Errorf("RegisteredDomain(%q): memoized %q, fresh %q", h, got, want)
		}
		fresh = MustCompile(defaultRules)
		if got, want := warm.PublicSuffix(h), fresh.PublicSuffix(h); got != want {
			t.Errorf("PublicSuffix(%q): memoized %q, fresh %q", h, got, want)
		}
		for _, o := range memoHosts {
			fresh = MustCompile(defaultRules)
			if got, want := warm.SameSite(h, o), fresh.SameSite(h, o); got != want {
				t.Errorf("SameSite(%q, %q): memoized %v, fresh %v", h, o, got, want)
			}
		}
	}
}

// TestMemoConcurrent races lookups of overlapping hosts from several
// goroutines (run it under -race) and checks every answer.
func TestMemoConcurrent(t *testing.T) {
	l := MustCompile(defaultRules)
	var hosts []string
	for i := 0; i < 300; i++ {
		hosts = append(hosts, fmt.Sprintf("h%d.site%d.example.co.uk", i, i%7))
	}
	hosts = append(hosts, memoHosts...)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				for i := range hosts {
					h := hosts[(i+g*37)%len(hosts)]
					if got, want := l.RegisteredDomain(h), l.registeredDomain(h); got != want {
						errs <- fmt.Sprintf("RegisteredDomain(%q) = %q, want %q", h, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestMemoCapHolds looks up more distinct hosts than the memo's cap and
// checks that the memo never holds more than the cap, while every
// answer stays right.
func TestMemoCapHolds(t *testing.T) {
	l := MustCompile(defaultRules)
	for i := 0; i < 3*memoSlots; i++ {
		rd := "example" + strconv.Itoa(i) + ".com"
		if got := l.RegisteredDomain("www." + rd); got != rd {
			t.Fatalf("RegisteredDomain(%q) = %q", "www."+rd, got)
		}
	}
	n := 0
	for i := range l.memo {
		if l.memo[i].Load() != nil {
			n++
		}
	}
	if n == 0 || n > memoSlots {
		t.Fatalf("memo holds %d entries after %d distinct hosts, cap %d", n, 3*memoSlots, memoSlots)
	}
}

// TestMemoClonesKeys checks that a memo entry does not share memory
// with the caller's host, which may be a slice of a large page body.
func TestMemoClonesKeys(t *testing.T) {
	l := MustCompile(defaultRules)
	body := []byte("xx www.example.com yy")
	host := string(body[3:18])
	l.RegisteredDomain(host)
	e := l.lookup(host)
	if unsafe.StringData(e.host) == unsafe.StringData(host) {
		t.Fatal("memo entry aliases the caller's host string")
	}
}

// FuzzRegisteredDomain checks, for any host: no panic; the memoized
// answer equals a freshly compiled list's; and the registered domain is
// empty or a dot-boundary suffix of the normalized host.
func FuzzRegisteredDomain(f *testing.F) {
	for _, h := range memoHosts {
		f.Add(h)
	}
	memo := MustCompile(defaultRules)
	f.Fuzz(func(t *testing.T, host string) {
		memo.RegisteredDomain(host)
		got := memo.RegisteredDomain(host)
		fresh := MustCompile(defaultRules)
		if want := fresh.RegisteredDomain(host); got != want {
			t.Fatalf("RegisteredDomain(%q): memoized %q, fresh %q", host, got, want)
		}
		if ps, want := memo.PublicSuffix(host), fresh.PublicSuffix(host); ps != want {
			t.Fatalf("PublicSuffix(%q): memoized %q, fresh %q", host, ps, want)
		}
		n := normalize(host)
		if nn := normalize(n); nn != n {
			t.Fatalf("normalize is not idempotent: normalize(%q) = %q, normalize of that = %q", host, n, nn)
		}
		if got == "" {
			return
		}
		if !strings.HasSuffix(n, got) || (len(got) < len(n) && n[len(n)-len(got)-1] != '.') {
			t.Fatalf("RegisteredDomain(%q) = %q, not a label-boundary suffix of %q", host, got, n)
		}
	})
}
