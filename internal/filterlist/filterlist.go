// Package filterlist implements the blocklist formats the paper evaluates
// against its findings (§5.1, §7.1): an EasyList-style URL filter engine
// (domain-anchor rules, substring rules, wildcards, comments) and a
// Disconnect-style tracker domain list. The paper found only 6% of
// smuggling URLs blocked by EasyList/EasyPrivacy and 41% of dedicated
// smugglers missing from Disconnect — coverage measurement is therefore a
// first-class operation here.
package filterlist

import (
	"net/url"
	"strings"

	"crumbcruncher/internal/publicsuffix"
)

// ruleKind discriminates rule syntaxes.
type ruleKind int

const (
	domainAnchor ruleKind = iota // ||example.com^
	substring                    // plain text, may contain * wildcards
)

// rule is one compiled filter rule.
type rule struct {
	kind   ruleKind
	domain string   // domainAnchor: the anchored domain
	parts  []string // substring: wildcard-split parts, lowercased
}

// List is a compiled EasyList-style filter list.
type List struct {
	rules []rule
}

// Parse compiles filter-list text lines. Unsupported syntax (element
// hiding "##", options after "$") is skipped rather than erroring, as ad
// blockers do.
func Parse(lines []string) *List {
	l := &List{}
	for _, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
			continue
		}
		if strings.Contains(line, "##") || strings.Contains(line, "#@#") {
			continue // element hiding: not URL blocking
		}
		if i := strings.IndexByte(line, '$'); i >= 0 {
			line = line[:i] // drop options
			if line == "" {
				continue
			}
		}
		if strings.HasPrefix(line, "||") {
			domain := strings.TrimSuffix(strings.TrimPrefix(line, "||"), "^")
			if i := strings.IndexAny(domain, "/^"); i >= 0 {
				domain = domain[:i]
			}
			if domain != "" {
				l.rules = append(l.rules, rule{kind: domainAnchor, domain: strings.ToLower(domain)})
			}
			continue
		}
		l.rules = append(l.rules, rule{kind: substring, parts: strings.Split(strings.ToLower(line), "*")})
	}
	return l
}

// Matches reports whether the URL is blocked by any rule.
func (l *List) Matches(rawURL string) bool {
	u, err := url.Parse(rawURL)
	if err != nil {
		return false
	}
	host := strings.ToLower(u.Hostname())
	full := strings.ToLower(rawURL)
	for _, r := range l.rules {
		switch r.kind {
		case domainAnchor:
			if host == r.domain || strings.HasSuffix(host, "."+r.domain) {
				return true
			}
		case substring:
			if wildcardContains(full, r.parts) {
				return true
			}
		}
	}
	return false
}

// wildcardContains checks that the parts appear in order in s (a "*"
// wildcard separates parts; a single part is a plain substring match).
// Parts and s are lowercased already: lowercasing can change a string's
// length (the Kelvin sign K is 3 bytes, its "k" one), so the part
// searched for must be the part skipped over.
func wildcardContains(s string, parts []string) bool {
	for _, p := range parts {
		if p == "" {
			continue
		}
		idx := strings.Index(s, p)
		if idx < 0 {
			return false
		}
		s = s[idx+len(p):]
	}
	return true
}

// BlockedFraction measures list coverage over a URL set — the paper's
// "only 6% of the unique URLs we found would have been blocked".
func (l *List) BlockedFraction(urls []string) float64 {
	if len(urls) == 0 {
		return 0
	}
	blocked := 0
	for _, u := range urls {
		if l.Matches(u) {
			blocked++
		}
	}
	return float64(blocked) / float64(len(urls))
}

// DomainList is a Disconnect-style tracker list: a set of registered
// domains.
type DomainList struct {
	domains map[string]bool
}

// NewDomainList builds a list from tracker domains (hosts are reduced to
// registered domains).
func NewDomainList(domains []string) *DomainList {
	l := &DomainList{domains: map[string]bool{}}
	for _, d := range domains {
		l.domains[reg(d)] = true
	}
	return l
}

func reg(host string) string {
	if rd := publicsuffix.RegisteredDomain(host); rd != "" {
		return rd
	}
	return strings.ToLower(host)
}

// Contains reports whether the host's registered domain is listed.
func (l *DomainList) Contains(host string) bool { return l.domains[reg(host)] }

// MissingFraction reports the fraction of hosts NOT covered by the list —
// the paper's 41%-of-dedicated-smugglers gap.
func (l *DomainList) MissingFraction(hosts []string) float64 {
	if len(hosts) == 0 {
		return 0
	}
	missing := 0
	for _, h := range hosts {
		if !l.Contains(h) {
			missing++
		}
	}
	return float64(missing) / float64(len(hosts))
}
