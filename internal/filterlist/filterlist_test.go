package filterlist

import "testing"

func TestParseSkipsCommentsAndCosmetic(t *testing.T) {
	l := Parse([]string{
		"! comment",
		"[Adblock Plus 2.0]",
		"example.com##.ad-banner",
		"",
		"||tracker.net^",
	})
	if l.Len() != 1 {
		t.Fatalf("rules = %d, want 1", l.Len())
	}
}

func TestDomainAnchorMatching(t *testing.T) {
	l := Parse([]string{"||doubleclick.net^"})
	if !l.Matches("http://adclick.g.doubleclick.net/c?d=x") {
		t.Fatal("subdomain must match domain anchor")
	}
	if !l.Matches("http://doubleclick.net/") {
		t.Fatal("apex must match")
	}
	if l.Matches("http://notdoubleclick.net/") {
		t.Fatal("suffix-overlap must not match")
	}
	if l.Matches("http://doubleclick.net.evil.com/") {
		t.Fatal("prefix spoof must not match")
	}
}

func TestDomainAnchorWithPath(t *testing.T) {
	l := Parse([]string{"||tracker.com/click"})
	if !l.Matches("http://tracker.com/click?x=1") {
		t.Fatal("anchored domain with path suffix should match by domain")
	}
}

func TestSubstringAndWildcard(t *testing.T) {
	l := Parse([]string{"/adclick?*uid="})
	if !l.Matches("http://x.com/adclick?a=1&uid=abc") {
		t.Fatal("wildcard rule must match in order")
	}
	if l.Matches("http://x.com/uid?adclick") {
		t.Fatal("out-of-order parts must not match")
	}
}

func TestOptionsStripped(t *testing.T) {
	l := Parse([]string{"||ads.example.com^$third-party"})
	if !l.Matches("http://ads.example.com/x") {
		t.Fatal("options suffix should be ignored, rule still applied")
	}
}

func TestBlockedFraction(t *testing.T) {
	l := Parse([]string{"||blocked.com^"})
	urls := []string{
		"http://blocked.com/a",
		"http://fine.com/b",
		"http://fine.com/c",
		"http://sub.blocked.com/d",
	}
	if got := l.BlockedFraction(urls); got != 0.5 {
		t.Fatalf("fraction = %f, want 0.5", got)
	}
	if got := l.BlockedFraction(nil); got != 0 {
		t.Fatalf("empty fraction = %f", got)
	}
}

func TestDomainList(t *testing.T) {
	l := NewDomainList([]string{"tracker.net", "adclick.g.bigads.com"})
	if !l.Contains("sub.tracker.net") {
		t.Fatal("subdomain must be contained (registered-domain semantics)")
	}
	if !l.Contains("bigads.com") {
		t.Fatal("host input must reduce to registered domain")
	}
	if l.Contains("other.org") {
		t.Fatal("unlisted domain contained")
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestMissingFraction(t *testing.T) {
	l := NewDomainList([]string{"known.com"})
	hosts := []string{"r.known.com", "x.unknown1.com", "y.unknown2.com"}
	got := l.MissingFraction(hosts)
	want := 2.0 / 3.0
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("missing = %f, want %f", got, want)
	}
}
