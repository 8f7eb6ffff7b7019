package netsim

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"crumbcruncher/internal/telemetry"
)

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	})
}

// TestStatusLine: a tabled status line equals the printed one for
// every code from 100 to 599.
func TestStatusLine(t *testing.T) {
	for code := 100; code < 600; code++ {
		if got, want := statusLine(code), strconv.Itoa(code)+" "+http.StatusText(code); got != want {
			t.Errorf("statusLine(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestHostOnly: skipping net.SplitHostPort for a host without a colon
// must not change what hostOnly returns.
func TestHostOnly(t *testing.T) {
	split := func(hostport string) string {
		if host, _, err := net.SplitHostPort(hostport); err == nil {
			return host
		}
		return hostport
	}
	for _, h := range []string{"", "a.com", "a.com:80", "a.com:", ":80", "[::1]:8080", "::1", "[::1]", "a:b:c", "xn--bcher-kva.example"} {
		if got, want := hostOnly(h), split(h); got != want {
			t.Errorf("hostOnly(%q) = %q, want %q", h, got, want)
		}
	}
}

func TestDispatchByHost(t *testing.T) {
	n := New()
	n.Handle("a.com", okHandler("site-a"))
	n.Handle("b.com", okHandler("site-b"))

	resp, err := n.Client().Get("http://b.com/page")
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	if body != "site-b" {
		t.Fatalf("body = %q", body)
	}
}

func TestUnknownHost(t *testing.T) {
	n := New()
	_, err := n.Client().Get("http://nowhere.invalid/")
	if err == nil {
		t.Fatal("expected error")
	}
	var unknown *ErrUnknownHost
	if !errors.As(err, &unknown) {
		t.Fatalf("error %v is not ErrUnknownHost", err)
	}
	if unknown.Host != "nowhere.invalid" {
		t.Fatalf("host = %q", unknown.Host)
	}
	if n.FailureCount() != 1 {
		t.Fatalf("FailureCount = %d", n.FailureCount())
	}
}

func TestRedirectsNotFollowed(t *testing.T) {
	n := New()
	n.HandleFunc("r.com", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "http://d.com/land", http.StatusFound)
	})
	n.Handle("d.com", okHandler("dest"))

	resp, err := n.Client().Get("http://r.com/go")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d, want 302 (redirect must surface to caller)", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://d.com/land" {
		t.Fatalf("Location = %q", loc)
	}
}

func TestRequestHeadersReachHandler(t *testing.T) {
	n := New()
	var gotUA, gotCookie string
	n.HandleFunc("x.com", func(w http.ResponseWriter, r *http.Request) {
		gotUA = r.Header.Get("User-Agent")
		gotCookie = r.Header.Get("Cookie")
	})
	req, _ := http.NewRequest("GET", "http://x.com/", nil)
	req.Header.Set("User-Agent", "FakeSafari/1.0")
	req.Header.Set("Cookie", "uid=abc123")
	if _, err := n.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	if gotUA != "FakeSafari/1.0" || gotCookie != "uid=abc123" {
		t.Fatalf("headers lost: ua=%q cookie=%q", gotUA, gotCookie)
	}
}

func TestFaultInjectorDeterminism(t *testing.T) {
	f1 := NewFaultInjector(42, 0.5)
	f2 := NewFaultInjector(42, 0.5)
	for i := 0; i < 200; i++ {
		host := fmt.Sprintf("site%d.com", i)
		if f1.Unreachable(host) != f2.Unreachable(host) {
			t.Fatalf("injector not deterministic for %s", host)
		}
	}
}

func TestFaultInjectorRate(t *testing.T) {
	f := NewFaultInjector(7, 0.033)
	const n = 20000
	failed := 0
	for i := 0; i < n; i++ {
		if f.Unreachable(fmt.Sprintf("host%d.com", i)) {
			failed++
		}
	}
	rate := float64(failed) / n
	if rate < 0.025 || rate > 0.042 {
		t.Fatalf("failure rate = %.4f, want ~0.033", rate)
	}
}

func TestFaultInjectorSameDomainSameFate(t *testing.T) {
	f := NewFaultInjector(1, 0.5)
	for i := 0; i < 100; i++ {
		d := fmt.Sprintf("dom%d.com", i)
		if f.Unreachable("www."+d) != f.Unreachable("shop."+d) {
			t.Fatalf("subdomains of %s disagree", d)
		}
	}
}

func TestFaultInjectorErrorFlavours(t *testing.T) {
	f := NewFaultInjector(3, 1.0) // everything fails
	flavours := map[string]bool{}
	for i := 0; i < 60; i++ {
		err := f.At(fmt.Sprintf("h%d.com", i), 0).Err
		if err == nil {
			t.Fatal("rate 1.0 must fail")
		}
		var op *net.OpError
		if !errors.As(err, &op) {
			t.Fatalf("error %v is not *net.OpError", err)
		}
		switch {
		case errors.Is(err, syscall.ECONNREFUSED):
			flavours["refused"] = true
		case errors.Is(err, syscall.ECONNRESET):
			flavours["reset"] = true
		default:
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				flavours["timeout"] = true
			} else {
				t.Fatalf("unexpected flavour: %v", err)
			}
		}
	}
	if len(flavours) != 3 {
		t.Fatalf("expected all three error flavours, got %v", flavours)
	}
}

func TestFaultInjectorZeroRate(t *testing.T) {
	f := NewFaultInjector(3, 0)
	if f.Unreachable("any.com") || f.At("any.com", 0) != (Fault{}) {
		t.Fatal("zero rate must never fail")
	}
}

func TestNetworkFaultIntegration(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultInjector(9, 1.0))
	n.Handle("up.com", okHandler("ok"))
	_, err := n.Client().Get("http://up.com/")
	if err == nil {
		t.Fatal("expected injected failure")
	}
	if n.FailureCount() != 1 || n.RequestCount() != 1 {
		t.Fatalf("counters: failures=%d requests=%d", n.FailureCount(), n.RequestCount())
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	c := NewVirtualClock()
	t0 := c.Now()
	if !t0.Equal(Epoch) {
		t.Fatalf("start = %v, want %v", t0, Epoch)
	}
	c.Advance(5 * time.Second)
	c.Advance(-time.Hour) // ignored
	if got := c.Now().Sub(t0); got != 5*time.Second {
		t.Fatalf("advanced %v, want 5s", got)
	}
}

// TestLatencyAdvancesClock: a request's latency — a first-attempt
// spike under no deadline — advances exactly the clock passed to Do,
// and RoundTrip, which has none, consumes no virtual time.
func TestLatencyAdvancesClock(t *testing.T) {
	n := New()
	n.SetFaults(NewFaultInjectorConfig(1, FaultConfig{SpikeRate: 1, SpikeLatency: 3 * time.Second}))
	n.Handle("a.com", okHandler("x"))
	clock, other := NewVirtualClock(), NewVirtualClock()
	req, _ := http.NewRequest("GET", "http://a.com/", nil)
	resp, err := n.Do(req, clock)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := clock.Now().Sub(Epoch); got != 3*time.Second {
		t.Fatalf("clock advanced %v, want the 3s spike", got)
	}
	if !other.Now().Equal(Epoch) {
		t.Fatal("a request advanced a clock it was not given")
	}
	resp, err = n.Client().Get("http://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := clock.Now().Sub(Epoch); got != 3*time.Second {
		t.Fatalf("RoundTrip moved the walk clock to %v", got)
	}
}

func TestObserverSeesRequests(t *testing.T) {
	n := New()
	n.Handle("a.com", okHandler("x"))
	var mu sync.Mutex
	var seen []string
	n.Observe(func(r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.String())
		mu.Unlock()
	})
	resp, err := n.Client().Get("http://a.com/p?q=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(seen) != 1 || seen[0] != "http://a.com/p?q=1" {
		t.Fatalf("observer saw %v", seen)
	}
}

func TestConcurrentClients(t *testing.T) {
	n := New()
	for i := 0; i < 10; i++ {
		n.Handle(fmt.Sprintf("s%d.com", i), okHandler("ok"))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := n.Client()
			for i := 0; i < 10; i++ {
				resp, err := c.Get(fmt.Sprintf("http://s%d.com/", i))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n.RequestCount() != 40 {
		t.Fatalf("RequestCount = %d, want 40", n.RequestCount())
	}
}

func TestHostsSorted(t *testing.T) {
	n := New()
	n.Handle("z.com", okHandler(""))
	n.Handle("a.com", okHandler(""))
	hosts := n.Hosts()
	if len(hosts) != 2 || hosts[0] != "a.com" || hosts[1] != "z.com" {
		t.Fatalf("Hosts = %v", hosts)
	}
}

func TestHostPortStripped(t *testing.T) {
	n := New()
	n.Handle("a.com", okHandler("ok"))
	resp, err := n.Client().Get("http://a.com:8080/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := ReadBody(resp)
	if body != "ok" {
		t.Fatalf("body = %q", body)
	}
}

func TestFaultExemption(t *testing.T) {
	f := NewFaultInjector(1, 1.0) // everything fails...
	f.Exempt("cdn.tracker.net", "bare-host")
	if f.Unreachable("tracker.net") || f.Unreachable("x.tracker.net") {
		t.Fatal("exempted registered domain still failing")
	}
	if f.Unreachable("bare-host") {
		t.Fatal("exempted bare host still failing")
	}
	if !f.Unreachable("other.com") {
		t.Fatal("non-exempt domain should fail at rate 1.0")
	}
}

func TestUnobserveStopsDelivery(t *testing.T) {
	n := New()
	n.Handle("a.com", okHandler("ok"))
	var calls1, calls2 int
	sub1 := n.Observe(func(r *http.Request) { calls1++ })
	sub2 := n.Observe(func(r *http.Request) { calls2++ })

	if _, err := n.Client().Get("http://a.com/"); err != nil {
		t.Fatal(err)
	}
	if calls1 != 1 || calls2 != 1 {
		t.Fatalf("calls = %d/%d, want 1/1", calls1, calls2)
	}

	n.Unobserve(sub1)
	if _, err := n.Client().Get("http://a.com/"); err != nil {
		t.Fatal(err)
	}
	if calls1 != 1 {
		t.Fatalf("unobserved fn still called: %d", calls1)
	}
	if calls2 != 2 {
		t.Fatalf("remaining observer missed dispatch: %d", calls2)
	}

	// Cancel is idempotent and works via the handle too.
	sub2.Cancel()
	sub2.Cancel()
	n.Unobserve(sub1) // already removed: ignored
	var nilSub *Subscription
	nilSub.Cancel() // nil-safe
	if _, err := n.Client().Get("http://a.com/"); err != nil {
		t.Fatal(err)
	}
	if calls2 != 2 {
		t.Fatalf("cancelled observer still called: %d", calls2)
	}
}

// TestObserverConcurrentRegisterDispatch hammers Observe/Unobserve from
// many goroutines while requests dispatch concurrently. Run under
// -race (make check does) it proves registration is safe against
// in-flight dispatches.
func TestObserverConcurrentRegisterDispatch(t *testing.T) {
	n := New()
	n.Handle("a.com", okHandler("ok"))
	client := n.Client()

	var hits atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get("http://a.com/")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sub := n.Observe(func(r *http.Request) { hits.Add(1) })
				sub.Cancel()
			}
		}()
	}
	// Let the churn and the request stream overlap, then stop.
	for i := 0; i < 50; i++ {
		resp, err := client.Get("http://a.com/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	close(stop)
	wg.Wait()
}

func TestTelemetryCountersAndSpans(t *testing.T) {
	n := New()
	n.Handle("a.com", okHandler("ok"))
	tel := telemetry.New(nil, 64)
	n.SetTelemetry(tel)

	if _, err := n.Client().Get("http://a.com/"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Client().Get("http://missing.example/"); err == nil {
		t.Fatal("unknown host should fail")
	}

	if n.RequestCount() != 2 || n.FailureCount() != 1 {
		t.Fatalf("requests=%d failures=%d", n.RequestCount(), n.FailureCount())
	}
	reg := tel.Registry()
	if reg.Counter("netsim.requests").Value() != 2 {
		t.Fatalf("registry requests = %d", reg.Counter("netsim.requests").Value())
	}
	if reg.Counter("netsim.unknown_hosts").Value() != 1 {
		t.Fatal("unknown host not counted")
	}

	spans := tel.Tracer().Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Layer != "netsim" || spans[0].Attrs["status"] != "200" {
		t.Fatalf("ok span = %+v", spans[0])
	}
	if spans[1].Err == "" || spans[1].Attrs["fault"] != "unknown-host" {
		t.Fatalf("fault span = %+v", spans[1])
	}
	// The network owns no clock, so it attaches none to the telemetry:
	// spans carry zero virtual time.
	if !spans[0].Start.IsZero() {
		t.Fatalf("span start %v, want the zero time", spans[0].Start)
	}

	// Detaching telemetry keeps counting in a fresh private registry.
	n.SetTelemetry(nil)
	if n.RequestCount() != 0 {
		t.Fatal("detach should rebind to an empty private registry")
	}
	if _, err := n.Client().Get("http://a.com/"); err != nil {
		t.Fatal(err)
	}
	if n.RequestCount() != 1 || tel.Tracer().Total() != 2 {
		t.Fatalf("post-detach: requests=%d spans=%d", n.RequestCount(), tel.Tracer().Total())
	}
}

func TestInjectedFaultCountedAndTraced(t *testing.T) {
	n := New()
	n.Handle("fail.com", okHandler("never"))
	// Rate 1.0 with no exemptions: every host is unreachable.
	n.SetFaults(NewFaultInjector(7, 1.0))
	tel := telemetry.New(nil, 8)
	n.SetTelemetry(tel)

	if _, err := n.Client().Get("http://fail.com/"); err == nil {
		t.Fatal("expected injected fault")
	}
	if got := tel.Registry().Counter("netsim.faults_injected").Value(); got != 1 {
		t.Fatalf("faults_injected = %d", got)
	}
	spans := tel.Tracer().Spans()
	if len(spans) != 1 || spans[0].Attrs["fault"] != "injected" || spans[0].Err == "" {
		t.Fatalf("fault span = %+v", spans)
	}
}
