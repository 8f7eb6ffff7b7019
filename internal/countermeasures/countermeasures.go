// Package countermeasures implements the defences against UID smuggling
// the paper surveys (§7) and the breakage experiment it runs against its
// own proposed mitigation (§6):
//
//   - Debouncing (Brave): when a navigation target encodes its real
//     destination in a query parameter, navigate straight there and skip
//     the redirector.
//   - Query stripping: remove known or suspected UID parameters from
//     navigation URLs (the paper's proposed mitigation), plus the §6
//     experiment measuring how login pages break when their token is
//     stripped.
//   - An ITP-style heuristic classifier (Safari): label a host a tracker
//     when it only ever auto-redirects, and propagate guilt through
//     shared navigation paths.
package countermeasures

import (
	"net/url"
	"regexp"
	"sort"
	"strings"

	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/tokens"
)

// --- Debouncing (Brave, §7.1) ----------------------------------------------

// Debouncer rewrites redirector navigations to their true destinations.
type Debouncer struct {
	// BounceHosts are known smuggler hosts (crowd-sourced list); empty
	// means rely purely on destination detection.
	BounceHosts map[string]bool
	// StripParams are query parameter names stripped from the recovered
	// destination (Brave's debounce.json parameter rules).
	StripParams map[string]bool
}

// NewDebouncer builds a Debouncer from host and parameter lists.
func NewDebouncer(bounceHosts, stripParams []string) *Debouncer {
	d := &Debouncer{BounceHosts: map[string]bool{}, StripParams: map[string]bool{}}
	for _, h := range bounceHosts {
		d.BounceHosts[strings.ToLower(h)] = true
	}
	for _, p := range stripParams {
		d.StripParams[p] = true
	}
	return d
}

// Result describes a debounce decision.
type Result struct {
	// Debounced reports whether the navigation was rewritten.
	Debounced bool
	// URL is the navigation target to use.
	URL string
	// Interstitial reports that the target is a known smuggler whose
	// destination could not be extracted: the browser should warn
	// (Brave's "unlinkable bouncing" interstitial).
	Interstitial bool
}

// Debounce inspects a navigation URL. If any query parameter holds a full
// URL with a different registered domain, the navigation is rewritten to
// it (recursively, for chained redirectors), with the parameter blocklist
// applied to the recovered destination.
func (d *Debouncer) Debounce(raw string) Result {
	cur := raw
	debounced := false
	for depth := 0; depth < 8; depth++ {
		u, err := url.Parse(cur)
		if err != nil {
			break
		}
		dest := extractDestination(u)
		if dest == "" {
			break
		}
		cur = dest
		debounced = true
	}
	if !debounced {
		u, err := url.Parse(cur)
		if err == nil && d.BounceHosts[strings.ToLower(u.Hostname())] {
			return Result{Debounced: false, URL: raw, Interstitial: true}
		}
		return Result{Debounced: false, URL: raw}
	}
	return Result{Debounced: true, URL: d.stripKnownParams(cur)}
}

// extractDestination finds a query parameter holding an absolute URL on a
// different registered domain.
func extractDestination(u *url.URL) string {
	keys := make([]string, 0)
	q := u.Query()
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range q[k] {
			cand, err := url.Parse(v)
			if err != nil || (cand.Scheme != "http" && cand.Scheme != "https") || cand.Host == "" {
				continue
			}
			if !publicsuffix.SameSite(u.Hostname(), cand.Hostname()) {
				return v
			}
		}
	}
	return ""
}

// stripKnownParams removes blocklisted parameters from a URL.
func (d *Debouncer) stripKnownParams(raw string) string {
	if len(d.StripParams) == 0 {
		return raw
	}
	return StripParams(raw, func(name, _ string) bool { return d.StripParams[name] })
}

// --- Query stripping (§7.2) --------------------------------------------------

// StripParams removes every query parameter for which remove returns
// true, preserving the rest (sorted for determinism). It returns the
// original string for unparsable URLs.
func StripParams(raw string, remove func(name, value string) bool) string {
	u, err := url.Parse(raw)
	if err != nil {
		return raw
	}
	q := u.Query()
	changed := false
	for name, vs := range q {
		keep := vs[:0]
		for _, v := range vs {
			if remove(name, v) {
				changed = true
			} else {
				keep = append(keep, v)
			}
		}
		if len(keep) == 0 {
			delete(q, name)
		} else {
			q[name] = keep
		}
	}
	if !changed {
		return raw
	}
	u.RawQuery = encodeStable(q)
	return u.String()
}

func encodeStable(q url.Values) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		for _, v := range q[k] {
			if b.Len() > 0 {
				b.WriteByte('&')
			}
			b.WriteString(url.QueryEscape(k))
			b.WriteByte('=')
			b.WriteString(url.QueryEscape(v))
		}
	}
	return b.String()
}

var opaqueTokenRe = regexp.MustCompile(`^[0-9a-fA-F]{16,}$|^[0-9A-Za-z_-]{20,}$`)

// LooksLikeUIDValue is the shape heuristic for suspected UID values: long
// opaque tokens that survive the pipeline's programmatic filters.
func LooksLikeUIDValue(v string) bool {
	if len(v) < 8 {
		return false
	}
	if tokens.ProgrammaticFilter(v) != tokens.KeepToken {
		return false
	}
	if tokens.ManualReview(v) {
		return false
	}
	return opaqueTokenRe.MatchString(v)
}

// StripSuspectedUIDs removes parameters whose names are on the known UID
// list or whose values look like UIDs.
func StripSuspectedUIDs(raw string, knownParams map[string]bool) string {
	return StripParams(raw, func(name, value string) bool {
		return knownParams[name] || LooksLikeUIDValue(value)
	})
}

// --- ITP-style classification (Safari, §7.1) ----------------------------------

// ITPClassifier labels hosts as navigational trackers with Safari's
// heuristics: a host that automatically redirects navigations without
// user interaction is a tracker candidate, and any host appearing in a
// navigation path alongside a known tracker is classified too.
type ITPClassifier struct {
	redirects map[string]int // host → times observed auto-redirecting
	terminal  map[string]int // host → times observed as a final page
	inPathOf  map[string]map[string]bool
}

// NewITPClassifier returns an empty classifier.
func NewITPClassifier() *ITPClassifier {
	return &ITPClassifier{
		redirects: map[string]int{},
		terminal:  map[string]int{},
		inPathOf:  map[string]map[string]bool{},
	}
}

// ObservePath feeds one navigation path (originator, redirectors,
// destination).
func (c *ITPClassifier) ObservePath(p *tokens.Path) {
	c.terminal[p.Originator().Host]++
	c.terminal[p.Destination().Host]++
	var hosts []string
	for _, n := range p.Nodes {
		hosts = append(hosts, n.Host)
	}
	for _, r := range p.Redirectors() {
		c.redirects[r.Host]++
		for _, h := range hosts {
			if h == r.Host {
				continue
			}
			if c.inPathOf[r.Host] == nil {
				c.inPathOf[r.Host] = map[string]bool{}
			}
			c.inPathOf[r.Host][h] = true
		}
	}
}

// Classified returns the hosts labelled as navigational trackers: hosts
// that redirect but are (almost) never a user-facing page, plus one round
// of guilt-by-association over shared paths.
func (c *ITPClassifier) Classified() []string {
	out := map[string]bool{}
	for h, n := range c.redirects {
		if n > 0 && c.terminal[h] == 0 {
			out[h] = true
		}
	}
	// Guilt by association: redirectors sharing a path with a classified
	// tracker are classified too (Safari's "participates in a navigation
	// path that contains another known UID smuggler").
	for h := range c.redirects {
		if out[h] {
			continue
		}
		for other := range c.inPathOf[h] {
			if out[other] {
				out[h] = true
				break
			}
		}
	}
	hosts := make([]string, 0, len(out))
	for h := range out {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}
