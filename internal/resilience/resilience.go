// Package resilience is the pipeline's failure-handling layer: a generic
// retry policy (capped exponential backoff with seeded jitter, slept on
// the simulation's virtual clock so retries cost zero wall time) and a
// retryable-vs-permanent error classifier.
//
// Everything here is deterministic: backoff delays are a pure function of
// (seed, key, attempt) and fault recovery in netsim is a pure function of
// (domain, attempt), so a crawl with retries enabled produces the same
// dataset for a given seed regardless of wall-clock scheduling or
// Parallelism.
package resilience

import (
	"errors"
	"fmt"
	"net"
	"time"

	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/telemetry"
)

// Clock is the virtual clock backoff sleeps on. netsim's VirtualClock
// satisfies it: Advance moves simulated time forward without any real
// sleeping.
type Clock interface {
	Now() time.Time
	Advance(d time.Duration) time.Time
}

// Policy is a capped exponential backoff retry policy. The zero value
// means "one attempt, no retries" (the pre-resilience behaviour), so
// configurations that never mention retries are unchanged.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (<= 1: a single attempt, no retries).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseDelay is the backoff before the second attempt (0: 500ms when
	// retries are enabled).
	BaseDelay time.Duration `json:"base_delay,omitempty"`
	// MaxDelay caps the backoff (0: 8s).
	MaxDelay time.Duration `json:"max_delay,omitempty"`
	// Multiplier is the per-attempt growth factor (0: 2).
	Multiplier float64 `json:"multiplier,omitempty"`
	// JitterFrac spreads each delay uniformly over ±JitterFrac of its
	// value, derived deterministically from the retry key — so
	// synchronized crawlers don't hammer a recovering host in lockstep,
	// yet every run schedules identically.
	JitterFrac float64 `json:"jitter_frac,omitempty"`
}

// DefaultPolicy returns the crawl's standard retry policy: three
// attempts with 500ms–8s capped exponential backoff and 20% jitter.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 3, BaseDelay: 500 * time.Millisecond, MaxDelay: 8 * time.Second, Multiplier: 2, JitterFrac: 0.2}
}

// withDefaults fills zero fields of an enabled policy.
func (p Policy) withDefaults() Policy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 500 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 8 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	return p
}

// Backoff returns the deterministic delay before attempt+1, i.e. after
// attempt (0-based) failed: min(Base·Multiplier^attempt, Max) spread by
// seeded jitter. It is a pure function of (seed, key, attempt).
func (p Policy) Backoff(seed int64, key string, attempt int) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.JitterFrac > 0 {
		h := uint64(stats.DeriveSeed(seed, fmt.Sprintf("resilience/backoff/%s/%d", key, attempt)))
		u := float64(h>>11) / float64(1<<53) // uniform [0,1)
		d *= 1 - p.JitterFrac + 2*p.JitterFrac*u
	}
	return time.Duration(d)
}

// Metrics caches the resilience layer's telemetry instruments; all
// fields are nil-safe no-ops when built from a nil registry.
type Metrics struct {
	// Retries counts attempts beyond the first.
	Retries *telemetry.Counter
	// Recovered counts retry sequences that succeeded after at least one
	// failed attempt (the transient-recovered population).
	Recovered *telemetry.Counter
	// Exhausted counts sequences that failed every attempt (the
	// permanently-unreachable population).
	Exhausted *telemetry.Counter
	// Backoff observes virtual backoff sleeps in microseconds.
	Backoff *telemetry.Histogram
}

// NewMetrics binds the standard resilience instruments out of reg
// (nil-safe: a nil registry yields no-op instruments).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Retries:   reg.Counter("resilience.retries"),
		Recovered: reg.Counter("resilience.recovered"),
		Exhausted: reg.Counter("resilience.exhausted"),
		Backoff:   reg.Histogram("resilience.backoff_us"),
	}
}

// Do runs op under the policy: up to MaxAttempts attempts, backing off
// on the virtual clock between retryable failures. Permanent errors
// (per Retryable) stop immediately. A response's Retry-After hint, when
// longer than the computed backoff, replaces it. m may be nil.
func Do(clock Clock, seed int64, key string, p Policy, m *Metrics, op func(attempt int) error) error {
	if m == nil {
		m = &Metrics{}
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			m.Retries.Inc()
		}
		err = op(attempt)
		if err == nil {
			if attempt > 0 {
				m.Recovered.Inc()
			}
			return nil
		}
		if attempt == attempts-1 || !Retryable(err) {
			break
		}
		d := p.Backoff(seed, key, attempt)
		if hint, ok := RetryAfterHint(err); ok && hint > d {
			d = hint
		}
		clock.Advance(d)
		m.Backoff.Observe(d.Microseconds())
	}
	m.Exhausted.Inc()
	return err
}

// HTTPError reports a degraded HTTP response (5xx or 429) as an error,
// carrying the server's Retry-After hint when present. The browser layer
// converts degraded navigation responses into this type so the retry
// classifier can see status codes.
type HTTPError struct {
	Status     int
	RetryAfter time.Duration
	URL        string
}

// Error implements error.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("http %d from %s", e.Status, e.URL)
}

// Temporary reports whether the status is worth retrying.
func (e *HTTPError) Temporary() bool {
	switch e.Status {
	case 429, 502, 503, 504:
		return true
	}
	return false
}

// Permanenter lets error types declare themselves non-retryable
// regardless of their transport shape (e.g. netsim's unknown-host
// NXDOMAIN).
type Permanenter interface{ Permanent() bool }

// Retryable classifies an error as transient (worth retrying) or
// permanent, via errors.As over the wrap chain: explicit Permanent()
// declarations win, then degraded HTTP statuses, then net.Error
// timeouts and transport-level *net.OpError flavours (ECONNREFUSED,
// ECONNRESET and friends). Anything else — click-logic failures,
// controller errors, parse errors — is permanent.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var perm Permanenter
	if errors.As(err, &perm) {
		return !perm.Permanent()
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Temporary()
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// RetryAfterHint extracts a server-provided Retry-After delay from the
// error chain.
func RetryAfterHint(err error) (time.Duration, bool) {
	var he *HTTPError
	if errors.As(err, &he) && he.RetryAfter > 0 {
		return he.RetryAfter, true
	}
	return 0, false
}
