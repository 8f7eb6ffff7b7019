package netsim

import (
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"

	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/telemetry"
)

// TestFlavourStableAcrossCalls locks in that a failed domain's error
// flavour is a pure function of the domain: repeated At calls, at any
// attempt, return the identical transport error, so all four
// synchronized crawlers record the same failure.
func TestFlavourStableAcrossCalls(t *testing.T) {
	f := NewFaultInjector(11, 1.0)
	for i := 0; i < 50; i++ {
		host := fmt.Sprintf("site%d.com", i)
		first := f.At(host, 0).Err
		if first == nil {
			t.Fatalf("%s: rate 1.0 must fail", host)
		}
		for call := 0; call < 5; call++ {
			if got := f.At(host, call).Err; got == nil || got.Error() != first.Error() {
				t.Fatalf("%s: flavour changed between calls: %v vs %v", host, first, got)
			}
		}
		// Subdomains share the registered domain's flavour.
		if got := f.At("www."+host, 0).Err; got == nil || got.Error() != first.Error() {
			t.Fatalf("%s: subdomain flavour %v disagrees with %v", host, got, first)
		}
	}
}

// TestExemptCoversRegisteredDomain is the satellite regression: exempting
// one deep subdomain must exempt every sibling under the same registered
// domain, across every fault class.
func TestExemptCoversRegisteredDomain(t *testing.T) {
	f := NewFaultInjectorConfig(1, FaultConfig{
		ConnectFailRate: 1, TransientRate: 1, DegradeRate: 1, SpikeRate: 1,
	})
	f.Exempt("a.cdn.example.com")
	for _, h := range []string{"a.cdn.example.com", "b.cdn.example.com", "example.com", "www.example.com"} {
		if f.Unreachable(h) {
			t.Errorf("%s unreachable despite sibling exemption", h)
		}
		// A transient, degraded or spiky domain faults on attempt 0.
		for attempt := 0; attempt < 4; attempt++ {
			if ft := f.At(h, attempt); ft != (Fault{}) {
				t.Errorf("At(%s, %d) = %+v, want zero fault", h, attempt, ft)
			}
		}
	}
	if !f.Unreachable("other.com") {
		t.Error("exemption leaked to an unrelated domain")
	}
}

// TestFaultRateEdges pins the rate-0 and rate-1 boundaries for every
// fault class.
func TestFaultRateEdges(t *testing.T) {
	zero := NewFaultInjectorConfig(5, FaultConfig{})
	for i := 0; i < 100; i++ {
		h := fmt.Sprintf("h%d.com", i)
		if zero.Unreachable(h) {
			t.Fatalf("zero config injected a fault for %s", h)
		}
		for attempt := 0; attempt < 4; attempt++ {
			if ft := zero.At(h, attempt); ft != (Fault{}) {
				t.Fatalf("zero config At(%s, %d) = %+v", h, attempt, ft)
			}
		}
	}

	all := NewFaultInjectorConfig(5, FaultConfig{TransientRate: 1})
	for i := 0; i < 100; i++ {
		h := fmt.Sprintf("h%d.com", i)
		if k := all.transientFails(all.domainOf(h)); k < 1 || k > 2 {
			t.Fatalf("transientFails(%s) = %d, want in [1, 2]", h, k)
		}
	}
}

// TestTransientRecoveryByAttempt proves transient episodes are
// attempt-indexed: the first k attempts fail with the domain's flavour,
// attempt k succeeds — regardless of call order or repetition.
func TestTransientRecoveryByAttempt(t *testing.T) {
	f := NewFaultInjectorConfig(3, FaultConfig{TransientRate: 1, TransientMaxFails: 3})
	for i := 0; i < 50; i++ {
		h := fmt.Sprintf("flaky%d.com", i)
		k := f.transientFails(f.domainOf(h))
		if k < 1 || k > 3 {
			t.Fatalf("transientFails(%s) = %d, want in [1, 3]", h, k)
		}
		// Query attempts out of order to prove there is no hidden state.
		for _, attempt := range []int{k, k - 1, 0, k + 5, k - 1, k} {
			ft := f.At(h, attempt)
			if attempt < k && ft.Err == nil {
				t.Fatalf("At(%s, %d) recovered before episode end k=%d", h, attempt, k)
			}
			if attempt >= k && ft.Err != nil {
				t.Fatalf("At(%s, %d) still failing after episode end k=%d: %v", h, attempt, k, ft.Err)
			}
		}
	}
}

// TestDegradedResponsesEndToEnd drives an HTTP-degraded domain through
// the network: early attempts get an injected 502/503 with a Retry-After
// hint and a truncated body, a later attempt reaches the real handler.
func TestDegradedResponsesEndToEnd(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultInjectorConfig(2, FaultConfig{DegradeRate: 1, DegradeMaxFails: 1}))
	n.Handle("slow.com", okHandler("real content"))

	get := func(attempt int) *http.Response {
		req, _ := http.NewRequest("GET", "http://slow.com/", nil)
		if attempt > 0 {
			req.Header.Set(HeaderAttempt, strconv.Itoa(attempt))
		}
		resp, err := n.Client().Do(req)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		return resp
	}

	resp := get(0)
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("attempt 0 status = %d, want 502 or 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 3 {
		t.Fatalf("Retry-After = %q, want 1..3 seconds", resp.Header.Get("Retry-After"))
	}
	if body, _ := ReadBody(resp); body != http.StatusText(resp.StatusCode) {
		t.Fatalf("degraded body = %q, want truncated status text", body)
	}

	resp = get(1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attempt 1 status = %d, want 200 after episode", resp.StatusCode)
	}
	if body, _ := ReadBody(resp); body != "real content" {
		t.Fatalf("attempt 1 body = %q, handler not reached", body)
	}
}

// TestDeadlineExceeded proves a latency spike beyond the request
// deadline consumes exactly the deadline of the caller's virtual clock
// and fails with a retryable timeout, while RoundTrip, which has no
// clock, consumes none.
func TestDeadlineExceeded(t *testing.T) {
	n := New()
	tel := telemetry.New(nil, 8)
	n.SetTelemetry(tel)
	n.SetFaults(NewFaultInjectorConfig(4, FaultConfig{SpikeRate: 1, SpikeLatency: 30 * time.Second}))
	n.SetRequestDeadline(5 * time.Second)
	n.Handle("spiky.com", okHandler("ok"))

	clock := NewVirtualClock()
	req, _ := http.NewRequest("GET", "http://spiky.com/", nil)
	_, err := n.Do(req, clock)
	if err == nil {
		t.Fatal("expected deadline timeout")
	}
	if !resilience.Retryable(err) {
		t.Errorf("deadline timeout %v should be retryable", err)
	}
	if got := clock.Now().Sub(Epoch); got != 5*time.Second {
		t.Errorf("request consumed %v of virtual time, want exactly the 5s deadline", got)
	}
	if _, err := n.Client().Get("http://spiky.com/"); err == nil {
		t.Fatal("expected deadline timeout through http.Client")
	}
	if v := tel.Registry().Counter("netsim.deadline_exceeded").Value(); v != 2 {
		t.Errorf("deadline_exceeded = %d, want 2", v)
	}

	// The retry (attempt 1) misses the spike and completes under the
	// deadline.
	req, _ = http.NewRequest("GET", "http://spiky.com/", nil)
	req.Header.Set(HeaderAttempt, "1")
	resp, err := n.Do(req, clock)
	if err != nil {
		t.Fatalf("attempt 1: %v", err)
	}
	resp.Body.Close()
	if got := clock.Now().Sub(Epoch); got != 5*time.Second {
		t.Errorf("clock at %v after the retry, want still 5s", got)
	}
}
