package resilience

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"crumbcruncher/internal/telemetry"
)

// fakeClock is a minimal virtual clock for tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time                    { return c.t }
func (c *fakeClock) Advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

// permanentErr is a transport-shaped error that declares itself
// non-retryable, as netsim's unknown-host error does.
type permanentErr struct{}

func (permanentErr) Error() string   { return "no such host" }
func (permanentErr) Permanent() bool { return true }

func TestBackoffDeterministic(t *testing.T) {
	p := DefaultPolicy()
	for attempt := 0; attempt < 4; attempt++ {
		a := p.Backoff(7, "seed/3/Safari-1", attempt)
		b := p.Backoff(7, "seed/3/Safari-1", attempt)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, a, b)
		}
	}
	if p.Backoff(7, "seed/3/Safari-1", 0) == p.Backoff(7, "seed/4/Safari-1", 0) {
		t.Error("distinct keys produced identical jittered delays (possible, but with 20% jitter over float64 it signals the key is ignored)")
	}
	if p.Backoff(7, "k", 1) == p.Backoff(8, "k", 1) {
		t.Error("distinct seeds produced identical jittered delays")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: time.Second, MaxDelay: 8 * time.Second, Multiplier: 2}
	want := []time.Duration{1 * time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second, 8 * time.Second}
	for attempt, w := range want {
		if got := p.Backoff(1, "k", attempt); got != w {
			t.Errorf("attempt %d: backoff = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Second, MaxDelay: 8 * time.Second, Multiplier: 2, JitterFrac: 0.2}
	for i := 0; i < 200; i++ {
		d := p.Backoff(int64(i), "k", 1) // nominal 2s
		lo, hi := 1600*time.Millisecond, 2400*time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("seed %d: jittered delay %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestDoRecoversAfterTransientFailure(t *testing.T) {
	clock := &fakeClock{}
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	calls := 0
	err := Do(clock, 1, "k", Policy{MaxAttempts: 3, BaseDelay: time.Second, MaxDelay: time.Second, Multiplier: 1}, m,
		func(attempt int) error {
			calls++
			if attempt < 2 {
				return &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do = %v, want recovery", err)
	}
	if calls != 3 {
		t.Errorf("op called %d times, want 3", calls)
	}
	if got := clock.Now().Sub(time.Time{}); got != 2*time.Second {
		t.Errorf("virtual clock advanced %v, want 2s (two 1s backoffs)", got)
	}
	if v := m.Retries.Value(); v != 2 {
		t.Errorf("retries counter = %d, want 2", v)
	}
	if v := m.Recovered.Value(); v != 1 {
		t.Errorf("recovered counter = %d, want 1", v)
	}
	if v := m.Exhausted.Value(); v != 0 {
		t.Errorf("exhausted counter = %d, want 0", v)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	clock := &fakeClock{}
	m := NewMetrics(telemetry.NewRegistry())
	calls := 0
	permanent := errors.New("no common element")
	err := Do(clock, 1, "k", DefaultPolicy(), m, func(int) error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) {
		t.Fatalf("Do = %v, want the permanent error", err)
	}
	if calls != 1 {
		t.Errorf("op called %d times, want 1 (permanent errors must not retry)", calls)
	}
	if clock.Now() != (time.Time{}) {
		t.Errorf("clock advanced %v for a permanent failure", clock.Now().Sub(time.Time{}))
	}
	if v := m.Exhausted.Value(); v != 1 {
		t.Errorf("exhausted counter = %d, want 1", v)
	}
}

func TestDoExhaustsRetries(t *testing.T) {
	clock := &fakeClock{}
	m := NewMetrics(telemetry.NewRegistry())
	calls := 0
	err := Do(clock, 1, "k", Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}, m, func(int) error {
		calls++
		return &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
	})
	if err == nil {
		t.Fatal("Do = nil, want exhaustion error")
	}
	if calls != 3 {
		t.Errorf("op called %d times, want 3", calls)
	}
	if v := m.Exhausted.Value(); v != 1 {
		t.Errorf("exhausted counter = %d, want 1", v)
	}
	if v := m.Recovered.Value(); v != 0 {
		t.Errorf("recovered counter = %d, want 0", v)
	}
}

func TestDoHonoursRetryAfterHint(t *testing.T) {
	clock := &fakeClock{}
	err := Do(clock, 1, "k", Policy{MaxAttempts: 2, BaseDelay: time.Second, MaxDelay: time.Second, Multiplier: 1}, nil,
		func(attempt int) error {
			if attempt == 0 {
				return &HTTPError{Status: 503, RetryAfter: 10 * time.Second, URL: "http://a.example.com/"}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do = %v, want recovery", err)
	}
	if got := clock.Now().Sub(time.Time{}); got != 10*time.Second {
		t.Errorf("clock advanced %v, want the 10s Retry-After hint over the 1s backoff", got)
	}
}

func TestDoZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	failure := &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}
	err := Do(&fakeClock{}, 1, "k", Policy{}, nil, func(int) error {
		calls++
		return failure
	})
	if calls != 1 {
		t.Errorf("zero policy ran %d attempts, want exactly 1 (pre-resilience behaviour)", calls)
	}
	if !errors.Is(err, failure) {
		t.Errorf("Do = %v, want the op's error", err)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain error", errors.New("click failed"), false},
		{"op error", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"wrapped op error", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, true},
		{"http 502", &HTTPError{Status: 502}, true},
		{"http 503", &HTTPError{Status: 503}, true},
		{"http 504", &HTTPError{Status: 504}, true},
		{"http 429", &HTTPError{Status: 429}, true},
		{"http 500", &HTTPError{Status: 500}, false},
		{"http 404", &HTTPError{Status: 404}, false},
		{"declared permanent", &net.OpError{Op: "dial", Err: permanentErr{}}, false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
