// Package storage implements browser storage — cookies and localStorage —
// under the three third-party policies the paper contrasts (Figure 1 and
// §2):
//
//   - Flat: a third party reads and writes one shared bucket regardless of
//     which top-level site embeds it. This is the historical behaviour that
//     made cookie-based cross-site tracking trivial.
//   - Partitioned: third-party storage is keyed by (embedded domain,
//     top-level domain), the Safari/Firefox/Brave defence UID smuggling is
//     designed to evade.
//   - Blocked: third-party cookie writes are dropped entirely (Chrome with
//     third-party cookies disabled, as configured on the paper's Chrome-3
//     crawler); localStorage remains partitioned.
//
// First-party storage (the frame domain equals the top-level domain) is
// never partitioned or blocked: that is precisely the property redirectors
// exploit, because a redirector is momentarily the top-level site.
//
// All domains are registered domains (eTLD+1); the package converts hosts
// itself.
package storage

import (
	"slices"
	"strings"
	"sync"
	"time"

	"crumbcruncher/internal/publicsuffix"
)

// Policy selects the third-party storage behaviour.
type Policy int

const (
	// Flat shares third-party storage across all top-level sites.
	Flat Policy = iota
	// Partitioned keys third-party storage by top-level site.
	Partitioned
	// Blocked drops third-party cookies; localStorage is partitioned.
	Blocked
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Flat:
		return "flat"
	case Partitioned:
		return "partitioned"
	case Blocked:
		return "blocked"
	default:
		return "unknown"
	}
}

// Context identifies who is accessing storage: the domain of the frame the
// code runs in (or the response being processed) and the top-level page's
// domain. Hosts are accepted; they are reduced to registered domains.
type Context struct {
	FrameHost string
	TopHost   string
}

// Cookie is a stored cookie. Expires is the absolute expiry; the zero time
// means a session cookie.
type Cookie struct {
	Name    string
	Value   string
	Domain  string // registered domain that owns the cookie
	Expires time.Time
	Created time.Time
}

// Expired reports whether the cookie is expired at now. Session cookies
// never expire within a run (the profile is discarded between walks, which
// is how session cookies die).
func (c Cookie) Expired(now time.Time) bool {
	return !c.Expires.IsZero() && !now.Before(c.Expires)
}

// partitionKey identifies one storage bucket.
type partitionKey struct {
	domain string // registered domain of the storing party
	top    string // "" for first-party and flat third-party buckets
}

// Store is one user profile's storage — the equivalent of a Chrome "user
// data directory" (§3.5). A new user is simulated by a new Store. Store is
// safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	policy  Policy
	psl     *publicsuffix.List
	cookies map[partitionKey]map[string]Cookie
	local   map[partitionKey]map[string]string
}

// New returns an empty Store with the given third-party policy.
func New(policy Policy) *Store {
	return &Store{
		policy:  policy,
		psl:     publicsuffix.Default(),
		cookies: make(map[partitionKey]map[string]Cookie),
		local:   make(map[partitionKey]map[string]string),
	}
}

// key resolves the storage bucket for ctx, applying the policy. The second
// return is false when access is denied outright (Blocked third-party
// cookies); callers pass cookieAccess=true for cookie operations.
func (s *Store) key(ctx Context, cookieAccess bool) (partitionKey, bool) {
	frame := s.registered(ctx.FrameHost)
	top := s.registered(ctx.TopHost)
	if top == "" {
		top = frame
	}
	if frame == top {
		// First party: one bucket per site, regardless of policy.
		return partitionKey{domain: frame}, true
	}
	switch s.policy {
	case Flat:
		return partitionKey{domain: frame}, true
	case Partitioned:
		return partitionKey{domain: frame, top: top}, true
	case Blocked:
		if cookieAccess {
			return partitionKey{}, false
		}
		return partitionKey{domain: frame, top: top}, true
	default:
		return partitionKey{domain: frame, top: top}, true
	}
}

func (s *Store) registered(host string) string {
	if host == "" {
		return ""
	}
	if rd := s.psl.RegisteredDomain(host); rd != "" {
		return rd
	}
	return host
}

// SetCookie stores a cookie in the bucket selected by ctx. Third-party
// cookie writes under the Blocked policy are silently dropped, as a real
// browser drops them.
func (s *Store) SetCookie(ctx Context, c Cookie) {
	k, ok := s.key(ctx, true)
	if !ok {
		return
	}
	c.Domain = k.domain
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.cookies[k]
	if m == nil {
		m = make(map[string]Cookie)
		s.cookies[k] = m
	}
	m[c.Name] = c
}

// Cookies returns the unexpired cookies visible to ctx at time now, sorted
// by name for determinism.
func (s *Store) Cookies(ctx Context, now time.Time) []Cookie {
	return s.AppendCookies(nil, ctx, now)
}

// AppendCookies appends the cookies Cookies returns to dst and returns
// the extended slice, so a caller that lists cookies per request can
// reuse one slice.
func (s *Store) AppendCookies(dst []Cookie, ctx Context, now time.Time) []Cookie {
	k, ok := s.key(ctx, true)
	if !ok {
		return dst
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.cookies[k]
	dst = slices.Grow(dst, len(m))
	n := len(dst)
	for _, c := range m {
		if !c.Expired(now) {
			dst = append(dst, c)
		}
	}
	slices.SortFunc(dst[n:], func(a, b Cookie) int { return strings.Compare(a.Name, b.Name) })
	return dst
}

// Cookie returns the named cookie visible to ctx, if present and
// unexpired.
func (s *Store) Cookie(ctx Context, name string, now time.Time) (Cookie, bool) {
	k, ok := s.key(ctx, true)
	if !ok {
		return Cookie{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cookies[k][name]
	if !ok || c.Expired(now) {
		return Cookie{}, false
	}
	return c, true
}

// SetLocal stores a localStorage value.
func (s *Store) SetLocal(ctx Context, key, value string) {
	k, ok := s.key(ctx, false)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.local[k]
	if m == nil {
		m = make(map[string]string)
		s.local[k] = m
	}
	m[key] = value
}

// Local returns a copy of the localStorage area visible to ctx.
func (s *Store) Local(ctx Context) map[string]string {
	k, ok := s.key(ctx, false)
	if !ok {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.local[k]
	out := make(map[string]string, len(m))
	for key, v := range m {
		out[key] = v
	}
	return out
}

// GetLocal returns one localStorage value.
func (s *Store) GetLocal(ctx Context, key string) (string, bool) {
	k, ok := s.key(ctx, false)
	if !ok {
		return "", false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.local[k][key]
	return v, ok
}

// FirstPartyLocal returns the first-party localStorage of the top-level
// host.
func (s *Store) FirstPartyLocal(topHost string) map[string]string {
	return s.Local(Context{FrameHost: topHost, TopHost: topHost})
}

// CookieCount returns the total number of stored cookies across all
// buckets (diagnostics and tests).
func (s *Store) CookieCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, m := range s.cookies {
		n += len(m)
	}
	return n
}
