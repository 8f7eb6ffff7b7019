package filterlist

import (
	"net/url"
	"strings"
	"testing"
)

func TestParseSkipsCommentsAndCosmetic(t *testing.T) {
	l := Parse([]string{
		"! comment",
		"[Adblock Plus 2.0]",
		"example.com##.ad-banner",
		"",
		"||tracker.net^",
	})
	if len(l.rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(l.rules))
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
	// The Kelvin sign U+212A is 3 bytes and lowercases to the 1-byte
	// "k": a match must skip the lowercased part, not the rule's.
	kelvin := Parse([]string{"\u212Aa*zz"})
	if kelvin.Matches("http://x.com/ka") || !kelvin.Matches("http://x.com/ka/zz") {
		t.Fatal("a rule must match by its lowercased parts")
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
	if len(l.domains) != 2 {
		t.Fatalf("len = %d", len(l.domains))
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

// FuzzParse compiles arbitrary rule lines and matches them against an
// arbitrary URL: nothing may panic, and a rule that is a plain ASCII
// substring of the lowercased URL must match it. The seeds are the
// rules and URLs of the tests above.
func FuzzParse(f *testing.F) {
	for _, seed := range [][2]string{
		{"! comment\n[Adblock Plus 2.0]\nexample.com##.ad-banner\n\n||tracker.net^", "http://tracker.net/"},
		{"||doubleclick.net^", "http://adclick.g.doubleclick.net/c?d=x"},
		{"||doubleclick.net^", "http://doubleclick.net.evil.com/"},
		{"||tracker.com/click", "http://tracker.com/click?x=1"},
		{"/adclick?*uid=", "http://x.com/adclick?a=1&uid=abc"},
		{"/adclick?*uid=", "http://x.com/uid?adclick"},
		{"||ads.example.com^$third-party", "http://ads.example.com/x"},
		{"\u212Aa*zz", "http://x.com/ka"},
		{"/AdClick", "http://x.com/adclick"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, rules, rawURL string) {
		lines := strings.Split(rules, "\n")
		l := Parse(lines)
		got := l.Matches(rawURL)
		if _, err := url.Parse(rawURL); err != nil {
			return
		}
		lower := strings.ToLower(rawURL)
		for _, line := range lines {
			if plainSubstringRule(line) && strings.Contains(lower, line) && !got {
				t.Fatalf("rule %q is a substring of %q but does not match it", line, lower)
			}
		}
	})
}

// plainSubstringRule reports whether Parse takes line, as is, for a
// one-part substring rule: printable ASCII with none of the filter
// syntax's special characters.
func plainSubstringRule(line string) bool {
	if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") ||
		strings.HasPrefix(line, "||") || strings.Contains(line, "##") || strings.Contains(line, "#@#") {
		return false
	}
	for i := 0; i < len(line); i++ {
		if c := line[i]; c <= ' ' || c > '~' || c == '*' || c == '$' {
			return false
		}
	}
	return true
}
