// Package publicsuffix computes registered domains (eTLD+1), the unit of
// "first-party context" throughout the paper: a token has been smuggled
// when it crosses registered-domain boundaries, and partitioned storage is
// keyed by registered domain.
//
// The rule engine implements the subset of the Public Suffix List algorithm
// that the measurement needs: normal rules, wildcard rules (*.ck) and
// exception rules (!www.ck), with longest-match-wins semantics. The
// built-in rule set covers the suffixes used by the synthetic web plus the
// common real-world ones, and callers can supply their own list.
//
// A List memoizes its answers per host: the crawl asks for the
// registered domain of the same few thousand hosts on every request,
// cookie access and same-site check.
package publicsuffix

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
)

// memoSlots is the fixed entry cap of a List's memo. The memo is a
// direct-mapped table: a host's hash picks its one slot and a new host
// evicts whatever held the slot, so the memo never holds more than
// memoSlots hosts however many distinct hosts one process asks about (a
// resident server crawls world after world through the default list).
// A paper-scale crawl asks about ~1.1k distinct hosts, and at 1<<14
// slots 99.9% of its lookups hit.
const memoSlots = 1 << 14

// memoEntry is one memoized host. host is a private copy of the
// caller's string, and suffix and domain are substrings of host (or of
// its normalized copy), so an entry never pins the page body or URL a
// caller's host was sliced from.
type memoEntry struct {
	host   string
	suffix string // PublicSuffix(host)
	domain string // RegisteredDomain(host)
}

// List is a compiled set of public-suffix rules. It is safe for
// concurrent use.
type List struct {
	rules      map[string]bool // exact suffix rules
	wildcards  map[string]bool // "*.<suffix>" rules, keyed by <suffix>
	exceptions map[string]bool // "!<domain>" rules, keyed by <domain>

	seed maphash.Seed
	memo [memoSlots]atomic.Pointer[memoEntry]
}

// defaultRules covers the TLDs and multi-label suffixes that appear in the
// synthetic web and in the paper's redirector tables (e.g.
// kuwosm.world.tmall.com is under .com; secure.jbs.elsevierhealth.com too).
var defaultRules = []string{
	"com", "net", "org", "io", "co", "info", "biz", "dev", "app",
	"edu", "gov", "mil", "int",
	"ru", "de", "fr", "uk", "jp", "cn", "br", "in", "ca", "au", "link",
	"world", "shop", "store", "news", "media", "blog", "site", "online",
	"ads", "cloud", "tech", "ai", "tv", "me",
	// Multi-label suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk",
	"com.au", "net.au", "org.au",
	"co.jp", "ne.jp", "or.jp",
	"com.br", "com.cn", "com.ru",
	// Wildcard and exception examples per the PSL algorithm.
	"*.ck", "!www.ck",
}

var defaultList = MustCompile(defaultRules)

// Default returns the built-in list.
func Default() *List { return defaultList }

// MustCompile compiles rules, panicking on a malformed rule. Rules use PSL
// syntax: "suffix", "*.suffix" or "!domain".
func MustCompile(rules []string) *List {
	l, err := Compile(rules)
	if err != nil {
		panic(err)
	}
	return l
}

// Compile compiles rules into a List.
func Compile(rules []string) (*List, error) {
	l := &List{
		rules:      make(map[string]bool),
		wildcards:  make(map[string]bool),
		exceptions: make(map[string]bool),
		seed:       maphash.MakeSeed(),
	}
	for _, r := range rules {
		r = strings.ToLower(strings.TrimSpace(r))
		if r == "" || strings.HasPrefix(r, "//") {
			continue
		}
		switch {
		case strings.HasPrefix(r, "!"):
			l.exceptions[r[1:]] = true
		case strings.HasPrefix(r, "*."):
			l.wildcards[r[2:]] = true
		default:
			l.rules[r] = true
		}
	}
	return l, nil
}

// lookup returns host's memo entry, computing it on a miss. Concurrent
// callers may compute one host twice; both store equal entries.
func (l *List) lookup(host string) *memoEntry {
	slot := &l.memo[maphash.String(l.seed, host)&(memoSlots-1)]
	if e := slot.Load(); e != nil && e.host == host {
		return e
	}
	h := strings.Clone(host)
	e := &memoEntry{host: h, suffix: l.publicSuffix(h), domain: l.registeredDomain(h)}
	slot.Store(e)
	return e
}

// PublicSuffix returns the public suffix of host. Per the PSL algorithm, a
// host that matches no rule has its last label as its public suffix.
func (l *List) PublicSuffix(host string) string { return l.lookup(host).suffix }

// RegisteredDomain returns the eTLD+1 for host: the public suffix plus one
// label. It returns "" if host is itself a public suffix (nothing is
// registrable) or empty.
func (l *List) RegisteredDomain(host string) string { return l.lookup(host).domain }

// publicSuffix is PublicSuffix, unmemoized.
//
// Every candidate suffix is a substring of the (normalized) host, so the
// scan allocates nothing.
func (l *List) publicSuffix(host string) string {
	host = normalize(host)
	if host == "" {
		return ""
	}
	// Find the longest matching rule, scanning label-boundary suffixes
	// from longest (whole host) to shortest so the first hit wins.
	for i := 0; ; {
		candidate := host[i:]
		if l.exceptions[candidate] {
			// Exception rules mark the candidate itself as registrable:
			// its public suffix is one label shorter.
			if j := strings.IndexByte(candidate, '.'); j >= 0 {
				return candidate[j+1:]
			}
			return ""
		}
		if l.rules[candidate] {
			return candidate
		}
		j := strings.IndexByte(candidate, '.')
		if j < 0 {
			// Last label, no rule matched: the default PSL "*" rule.
			return candidate
		}
		// Wildcard *.<base> matches <label>.<base>.
		if l.wildcards[candidate[j+1:]] {
			return candidate
		}
		i += j + 1
	}
}

// registeredDomain is RegisteredDomain, unmemoized. The result is a
// substring of the normalized host.
func (l *List) registeredDomain(host string) string {
	host = normalize(host)
	if host == "" {
		return ""
	}
	suffix := l.publicSuffix(host)
	if suffix == "" || len(suffix) >= len(host) {
		return ""
	}
	// PublicSuffix returns a suffix substring of host, so everything
	// before it (minus the joining dot) is the registrable part.
	rest := host[:len(host)-len(suffix)-1]
	if j := strings.LastIndexByte(rest, '.'); j >= 0 {
		return host[j+1:]
	}
	return host
}

// SameSite reports whether two hosts share a registered domain — the
// paper's definition of staying inside one first-party context. Hosts that
// have no registrable domain are only same-site if identical.
func (l *List) SameSite(a, b string) bool {
	ra, rb := l.RegisteredDomain(a), l.RegisteredDomain(b)
	if ra == "" || rb == "" {
		return normalize(a) == normalize(b)
	}
	return ra == rb
}

// RegisteredDomain applies the default list.
func RegisteredDomain(host string) string { return defaultList.RegisteredDomain(host) }

// SameSite applies the default list.
func SameSite(a, b string) bool { return defaultList.SameSite(a, b) }

// normalize lowercases, strips surrounding space, a trailing dot and
// any port, repeating the strip until nothing changes, so that it is
// idempotent: "a.com:80." and "a.com.:80" both give "a.com".
func normalize(host string) string {
	host = strings.ToLower(host)
	for {
		h := stripPort(strings.TrimSuffix(strings.TrimSpace(host), "."))
		if h == host {
			return h
		}
		host = h
	}
}

// stripPort drops a trailing ":digits" port. A tail holding a dot or a
// non-digit is kept: that is no port (an IPv6 segment, say; the
// synthetic web never uses IPv6 hosts, but be safe).
func stripPort(host string) string {
	i := strings.LastIndexByte(host, ':')
	if i < 0 || i == len(host)-1 {
		return host
	}
	for _, c := range host[i+1:] {
		if c < '0' || c > '9' {
			return host
		}
	}
	return host[:i]
}
