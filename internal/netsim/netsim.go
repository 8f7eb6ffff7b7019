// Package netsim provides the virtual network the synthetic web is served
// over. It implements http.RoundTripper: requests carry real
// *http.Request/*http.Response values end to end, and the browser, crawler
// and tracker code is written exactly as it would be against live sockets —
// the transport is the only substitution for the paper's real Internet.
//
// The simulator models the two network behaviours the paper measures or
// depends on:
//
//   - Connection failures. 3.3% of the sites CrumbCruncher attempted to
//     visit failed with errors like ECONNREFUSED or ECONNRESET (§3.3). The
//     fault injector reproduces those as genuine *net.OpError values
//     wrapping syscall errnos, decided deterministically per registered
//     domain so that synchronized crawlers observe identical failures.
//
//   - Time. A request consumes virtual time — an injected latency spike,
//     or the request deadline it blows — on the clock its caller passes
//     to Do (no real sleeping), so timing-derived data is reproducible
//     and fast. The network owns no clock: a crawl gives every walk its
//     own, so no walk's time depends on another's.
package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/telemetry"
)

// HeaderAttempt carries the retry layer's 0-based attempt index on each
// request. Transient fault episodes are a pure function of (registered
// domain, attempt) — not of virtual time — so outcomes are independent
// of goroutine interleaving and identical at any Parallelism.
const HeaderAttempt = "X-Crumb-Attempt"

// Network is a virtual Internet: a host registry plus a fault model. It
// is safe for concurrent use by multiple crawlers.
type Network struct {
	mu    sync.RWMutex
	hosts map[string]http.Handler

	// resolver, when set, is consulted on a miss in the host registry:
	// it may register handlers for the host (lazy worlds materialise the
	// owning site here), after which the lookup is retried once. It must
	// be deterministic: resolution happens on first visit, whenever that
	// is.
	resolver func(host string)

	faults   *FaultInjector
	deadline time.Duration

	// Request accounting lives in a telemetry registry: a private one
	// by default, the run's shared registry after SetTelemetry. The
	// instrument handles are cached so the hot path never takes the
	// registry lock.
	tel              *telemetry.Telemetry
	requests         *telemetry.Counter
	failures         *telemetry.Counter
	faultsInjected   *telemetry.Counter
	unknownHosts     *telemetry.Counter
	latencyHist      *telemetry.Histogram
	deadlineExceeded *telemetry.Counter
	degradedResps    *telemetry.Counter

	// observers are notified of every request before dispatch. Used by
	// tests; the browser layer records its own requests.
	obsMu     sync.RWMutex
	observers []*Subscription
}

// New returns an empty Network with no faults.
func New() *Network {
	n := &Network{
		hosts:  make(map[string]http.Handler),
		faults: NewFaultInjector(0, 0),
	}
	n.bindInstruments(telemetry.NewRegistry())
	return n
}

// bindInstruments caches the network's instrument handles out of reg.
func (n *Network) bindInstruments(reg *telemetry.Registry) {
	n.requests = reg.Counter("netsim.requests")
	n.failures = reg.Counter("netsim.failures")
	n.faultsInjected = reg.Counter("netsim.faults_injected")
	n.unknownHosts = reg.Counter("netsim.unknown_hosts")
	n.latencyHist = reg.Histogram("netsim.latency_us")
	n.deadlineExceeded = reg.Counter("netsim.deadline_exceeded")
	n.degradedResps = reg.Counter("netsim.degraded_responses")
}

// SetTelemetry attaches the run's telemetry: per-request spans, and the
// request/failure counters rebound into the shared registry. Must be
// called before the network is shared with concurrent users; passing
// nil reverts to a private registry (counting continues, spans stop).
func (n *Network) SetTelemetry(t *telemetry.Telemetry) {
	n.tel = t
	if t == nil {
		n.bindInstruments(telemetry.NewRegistry())
		return
	}
	n.bindInstruments(t.Registry())
}

// SetFaults installs a fault injector. Passing nil disables fault
// injection.
func (n *Network) SetFaults(f *FaultInjector) {
	if f == nil {
		f = NewFaultInjector(0, 0)
	}
	n.faults = f
}

// Faults returns the active fault injector.
func (n *Network) Faults() *FaultInjector { return n.faults }

// SetRequestDeadline enforces a per-request deadline: any request whose
// latency (an injected spike) would exceed d instead consumes exactly d
// of virtual time and fails with a timeout. Zero disables deadlines.
// Must be called before the network is shared.
func (n *Network) SetRequestDeadline(d time.Duration) { n.deadline = d }

// SetResolver installs a lazy host resolver, called (outside the
// registry lock) when a request targets an unregistered host. The
// resolver registers any handlers it can for the host via Handle; the
// lookup is then retried once, and still-unknown hosts fail with
// ErrUnknownHost as usual. Must be set before the network is shared
// with concurrent users; passing nil removes it.
func (n *Network) SetResolver(fn func(host string)) {
	n.resolver = fn
}

// Handle registers handler for the exact host (no port). Registering the
// same host twice replaces the handler.
func (n *Network) Handle(host string, handler http.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = handler
}

// HandleFunc registers a handler function for host.
func (n *Network) HandleFunc(host string, fn func(http.ResponseWriter, *http.Request)) {
	n.Handle(host, http.HandlerFunc(fn))
}

// Hosts returns the registered hosts in sorted order.
func (n *Network) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	hosts := make([]string, 0, len(n.hosts))
	for h := range n.hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// Subscription is a handle to a registered request observer; cancel it
// with Unobserve (or Subscription.Cancel).
type Subscription struct {
	n  *Network
	fn func(*http.Request)
}

// Cancel removes the subscription from its network. Safe to call more
// than once and on nil.
func (s *Subscription) Cancel() {
	if s == nil || s.n == nil {
		return
	}
	s.n.Unobserve(s)
}

// Observe registers fn to be called for every request entering the
// network and returns a handle that Unobserve accepts. The request is
// lent to fn for the call only (see Do): fn must not keep it, its URL
// or its header.
func (n *Network) Observe(fn func(*http.Request)) *Subscription {
	s := &Subscription{n: n, fn: fn}
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	// Copy-on-write: dispatch snapshots the slice outside the lock, so
	// registration must never mutate a slice a dispatcher may hold.
	next := make([]*Subscription, 0, len(n.observers)+1)
	next = append(next, n.observers...)
	n.observers = append(next, s)
	return s
}

// Unobserve removes a previously registered observer. Unknown or
// already-removed handles are ignored.
func (n *Network) Unobserve(s *Subscription) {
	if s == nil {
		return
	}
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	next := make([]*Subscription, 0, len(n.observers))
	for _, o := range n.observers {
		if o != s {
			next = append(next, o)
		}
	}
	n.observers = next
}

// RequestCount returns the number of requests dispatched (including
// failed ones).
func (n *Network) RequestCount() int64 { return n.requests.Value() }

// FailureCount returns the number of failed dispatches (injected faults
// and unknown hosts).
func (n *Network) FailureCount() int64 { return n.failures.Value() }

// ErrUnknownHost is the error flavour for hosts with no registered
// handler; it mirrors a DNS NXDOMAIN failure.
type ErrUnknownHost struct{ Host string }

func (e *ErrUnknownHost) Error() string {
	return fmt.Sprintf("netsim: lookup %s: no such host", e.Host)
}

// Permanent marks NXDOMAIN non-retryable: a host that does not resolve
// now never will inside one simulated crawl.
func (e *ErrUnknownHost) Permanent() bool { return true }

// RoundTrip implements http.RoundTripper for http.Client users. It is Do
// without a clock: the request consumes no virtual time.
func (n *Network) RoundTrip(req *http.Request) (*http.Response, error) {
	return n.Do(req, nil)
}

// Do dispatches req and advances clock by the virtual time the request
// consumes; a nil clock consumes none. The clock is an argument rather
// than network state so that concurrent walks, each with its own clock,
// never see each other's time.
//
// The caller may reuse req once Do returns, as the browser does for
// every fetch. So a handler or observer must not keep req, its URL or
// its header past its return (a string read from them is safe to keep),
// and the returned response's Request, which is req, must not be read
// after the caller's next request.
func (n *Network) Do(req *http.Request, clock *VirtualClock) (*http.Response, error) {
	n.requests.Inc()
	host := hostOnly(req.URL.Host)
	sp := n.tel.StartSpan("netsim", "roundtrip").Attr("host", host)

	n.obsMu.RLock()
	obs := n.observers
	n.obsMu.RUnlock()
	for _, s := range obs {
		s.fn(req)
	}

	attempt := 0
	if v := req.Header.Get(HeaderAttempt); v != "" {
		attempt, _ = strconv.Atoi(v)
	}

	ft := n.faults.At(host, attempt)
	if ft.Err != nil {
		n.failures.Inc()
		n.faultsInjected.Inc()
		sp.Attr("fault", "injected").EndErr(ft.Err)
		return nil, ft.Err
	}

	n.mu.RLock()
	handler, ok := n.hosts[host]
	n.mu.RUnlock()
	if !ok && n.resolver != nil {
		// Lazy registration: let the resolver materialise the host's
		// handlers, then retry the lookup once.
		n.resolver(host)
		n.mu.RLock()
		handler, ok = n.hosts[host]
		n.mu.RUnlock()
	}
	if !ok {
		n.failures.Inc()
		n.unknownHosts.Inc()
		err := &net.OpError{Op: "dial", Net: "tcp", Err: &ErrUnknownHost{Host: host}}
		sp.Attr("fault", "unknown-host").EndErr(err)
		return nil, err
	}

	lat := ft.ExtraLatency
	if n.deadline > 0 && lat > n.deadline {
		// The client hangs up at the deadline: the request consumes
		// exactly the deadline of virtual time, then times out.
		clock.Advance(n.deadline)
		n.latencyHist.Observe(n.deadline.Microseconds())
		n.failures.Inc()
		n.deadlineExceeded.Inc()
		err := &net.OpError{Op: "read", Net: "tcp", Err: &timeoutError{}}
		sp.Attr("fault", "deadline").EndErr(err)
		return nil, err
	}
	clock.Advance(lat)
	n.latencyHist.Observe(lat.Microseconds())

	if ft.Status != 0 {
		// HTTP-level degradation: the origin answers, but with an
		// injected 502/503 carrying a Retry-After hint and a truncated
		// body — the handler is never consulted.
		n.degradedResps.Inc()
		rec := recorderPool.Get().(*recorder)
		if ft.RetryAfter > 0 {
			rec.Header().Set("Retry-After", strconv.Itoa(int(ft.RetryAfter/time.Second)))
		}
		rec.WriteHeader(ft.Status)
		io.WriteString(rec, http.StatusText(ft.Status))
		resp := rec.response(req)
		sp.Attr("fault", "degraded").Attr("status", strconv.Itoa(ft.Status)).End()
		return resp, nil
	}

	rec := recorderPool.Get().(*recorder)
	handler.ServeHTTP(rec, req)
	resp := rec.response(req)
	sp.Attr("status", strconv.Itoa(resp.StatusCode)).End()
	return resp, nil
}

// recorderPool recycles the per-request response recorders. The body
// buffer is the valuable part: handlers write multi-kilobyte pages into
// it, and a recycled buffer reaches its high-water capacity once and
// then serves every later request without growing. The reset contract
// (DESIGN.md §10): response() turns the buffered bytes into the body
// string — the one copy a response's bytes ever get — detaches the
// header map and empties the buffer before the recorder returns to the
// pool, so a pooled recorder is indistinguishable from a fresh one.
var recorderPool = sync.Pool{New: func() any { return new(recorder) }}

// recorder is a minimal in-process http.ResponseWriter. It replaces
// httptest.NewRecorder on the round-trip hot path: the httptest version
// allocates a fresh recorder and body buffer per request and its
// Result() clones the header map; this one recycles through
// recorderPool and hands the handler-built header to the response
// as-is.
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header, 4)
	}
	return r.header
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) WriteString(s string) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.WriteString(s)
}

// response snapshots the recorded state into an *http.Response and
// returns the recorder to the pool. The body is copied exactly once,
// into the string a stringBody reads from (the pooled buffer must not
// escape); the header map moves to the response uncloned, so the
// recorder forgets it.
func (r *recorder) response(req *http.Request) *http.Response {
	code := r.code
	if code == 0 {
		code = http.StatusOK
	}
	h := r.header
	if h == nil {
		h = make(http.Header)
	}
	body := r.body.String()
	r.code, r.header = 0, nil
	r.body.Reset()
	recorderPool.Put(r)
	return &http.Response{
		Status:        statusLine(code),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          newStringBody(body),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// statusLine returns a response's Status for code, "200 OK" for 200:
// the codes the synthetic web and the fault injector write come from a
// table rather than being printed per response, and any other code is
// printed as strconv.Itoa(code) + " " + http.StatusText(code).
func statusLine(code int) string {
	switch code {
	case http.StatusOK:
		return "200 OK"
	case http.StatusFound:
		return "302 Found"
	case http.StatusBadRequest:
		return "400 Bad Request"
	case http.StatusBadGateway:
		return "502 Bad Gateway"
	case http.StatusServiceUnavailable:
		return "503 Service Unavailable"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// stringBody is the body of every response this network serves: a
// reader over the recorded string. ReadBody recognises it and hands the
// unread rest of the string over without copying it again.
type stringBody struct {
	strings.Reader
	s string
}

func newStringBody(s string) *stringBody {
	b := &stringBody{s: s}
	b.Reset(s)
	return b
}

// Close is a no-op: the body holds no resources.
func (*stringBody) Close() error { return nil }

// Client returns an *http.Client backed by this network that does NOT
// follow redirects: the browser layer walks redirect chains itself so that
// every hop — every potential UID smuggler — is observed and recorded.
func (n *Network) Client() *http.Client {
	return &http.Client{
		Transport: n,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// hostOnly strips a port from a host:port string. A host without a
// colon has no port to strip; it skips net.SplitHostPort, whose
// missing-port error would be an allocation on nearly every request.
func hostOnly(hostport string) string {
	if !strings.Contains(hostport, ":") {
		return hostport
	}
	if host, _, err := net.SplitHostPort(hostport); err == nil {
		return host
	}
	return hostport
}

// ReadBody fully reads and closes a response body. It is tolerant of nil
// responses for use in error paths. A body this network served is
// returned as the string it already is; any other body is copied out.
func ReadBody(resp *http.Response) (string, error) {
	if resp == nil || resp.Body == nil {
		return "", nil
	}
	defer resp.Body.Close()
	if b, ok := resp.Body.(*stringBody); ok {
		rest := b.s[len(b.s)-b.Len():]
		b.Reset("")
		return rest, nil
	}
	var sb strings.Builder
	_, err := io.Copy(&sb, resp.Body)
	return sb.String(), err
}

// FaultConfig describes the full fault model. The zero value injects
// nothing; a bare connect-fail rate reproduces the original
// permanent-outage-only injector.
type FaultConfig struct {
	// ConnectFailRate is the fraction of registered domains that are
	// permanently unreachable (the paper's 3.3%).
	ConnectFailRate float64 `json:"connect_fail_rate,omitempty"`
	// TransientRate is the fraction of domains that are flaky: their
	// first k connection attempts of any retry sequence fail with a
	// transport error, then they recover (k is seed-derived per domain
	// in [1, TransientMaxFails]).
	TransientRate float64 `json:"transient_rate,omitempty"`
	// TransientMaxFails bounds k for transient domains (0: 2).
	TransientMaxFails int `json:"transient_max_fails,omitempty"`
	// DegradeRate is the fraction of domains whose first k attempts are
	// answered with an injected 502/503 (Retry-After set, truncated
	// body) before serving real content.
	DegradeRate float64 `json:"degrade_rate,omitempty"`
	// DegradeMaxFails bounds k for degraded domains (0: 2).
	DegradeMaxFails int `json:"degrade_max_fails,omitempty"`
	// SpikeRate is the fraction of domains whose first attempt carries
	// SpikeLatency of extra latency — enough to blow a request deadline
	// when one is set.
	SpikeRate float64 `json:"spike_rate,omitempty"`
	// SpikeLatency is the extra first-attempt latency for spiky domains
	// (0: 30s).
	SpikeLatency time.Duration `json:"spike_latency,omitempty"`
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.TransientMaxFails <= 0 {
		c.TransientMaxFails = 2
	}
	if c.DegradeMaxFails <= 0 {
		c.DegradeMaxFails = 2
	}
	if c.SpikeLatency <= 0 {
		c.SpikeLatency = 30 * time.Second
	}
	return c
}

// Fault is the injected behaviour for one request: a transport error, a
// degraded HTTP response, extra latency, or (the zero value) nothing.
type Fault struct {
	// Err, when non-nil, fails the request at the transport level.
	Err error
	// Status, when non-zero, synthesizes a degraded HTTP response.
	Status int
	// RetryAfter is the degraded response's Retry-After hint.
	RetryAfter time.Duration
	// ExtraLatency is added to the request's sampled latency.
	ExtraLatency time.Duration
}

// Hash salts: each class of decision draws from an independent stream,
// so enabling a new fault class never perturbs an existing one.
const (
	saltPermanent      = 0 // permanent-outage membership
	saltFlavour        = 1 // transport-error flavour
	saltTransient      = 2 // transient-episode membership
	saltTransientFails = 3 // transient episode length k
	saltDegrade        = 4 // degraded-domain membership
	saltDegradeFails   = 5 // degrade episode length k
	saltDegradeStatus  = 6 // 502 vs 503
	saltRetryAfter     = 7 // Retry-After hint seconds
	saltSpike          = 8 // latency-spike membership
)

// FaultInjector decides, deterministically per registered domain, whether
// connections to a host fail and with which behaviour. Permanent-outage
// decisions match the paper's observation model: a site is either
// reachable for the whole crawl or not, so all four synchronized crawlers
// see the same failure at step 1 of a walk. Transient decisions are keyed
// by (domain, attempt) — never by clock readings — so outcomes do not
// depend on goroutine scheduling.
type FaultInjector struct {
	seed   uint64
	cfg    FaultConfig
	psl    *publicsuffix.List
	exempt map[string]bool
}

// NewFaultInjector returns an injector failing connections to a fraction
// rate of registered domains permanently, derived from seed.
func NewFaultInjector(seed int64, rate float64) *FaultInjector {
	return NewFaultInjectorConfig(seed, FaultConfig{ConnectFailRate: rate})
}

// NewFaultInjectorConfig returns an injector implementing the full fault
// model in cfg, derived from seed.
func NewFaultInjectorConfig(seed int64, cfg FaultConfig) *FaultInjector {
	return &FaultInjector{
		seed:   uint64(stats.DeriveSeed(seed, "netsim/faults")),
		cfg:    cfg.withDefaults(),
		psl:    publicsuffix.Default(),
		exempt: make(map[string]bool),
	}
}

// Exempt excludes the registered domains of the given hosts from fault
// injection. The synthetic web exempts tracker infrastructure so that the
// connect-failure rate applies to content sites, matching the paper's
// accounting ("3.3% of the sites it attempted to visit"). Exempt must be
// called before the injector is shared with concurrent users.
func (f *FaultInjector) Exempt(hosts ...string) {
	for _, h := range hosts {
		d := f.psl.RegisteredDomain(h)
		if d == "" {
			d = h
		}
		f.exempt[d] = true
	}
}

// domainOf maps a host to its fault-decision key: the registered domain,
// or the host itself when no registrable suffix matches.
func (f *FaultInjector) domainOf(host string) string {
	if d := f.psl.RegisteredDomain(host); d != "" {
		return d
	}
	return host
}

// in reports whether domain falls in the fraction rate of the population
// selected by the salt's hash stream.
func (f *FaultInjector) in(domain string, salt uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return f.hash(domain, salt)%10000 < uint64(rate*10000)
}

// Unreachable reports whether the registered domain of host is
// permanently failed by this injector.
func (f *FaultInjector) Unreachable(host string) bool {
	domain := f.domainOf(host)
	if f.exempt[domain] {
		return false
	}
	return f.in(domain, saltPermanent, f.cfg.ConnectFailRate)
}

// flavour is the deterministic per-domain transport error (refused,
// reset, timeout), mirroring the paper's "ECONNREFUSED, ECONNRESET,
// etc.". Permanent and transient failures of one domain share a flavour:
// a flaky host looks exactly like a dead one until a retry gets through.
func (f *FaultInjector) flavour(domain string) error {
	switch f.hash(domain, saltFlavour) % 3 {
	case 0:
		return &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	case 1:
		return &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	default:
		return &net.OpError{Op: "dial", Net: "tcp", Err: &timeoutError{}}
	}
}

// transientFails returns how many leading attempts of a retry sequence
// fail for domain (0: the domain is not transient).
func (f *FaultInjector) transientFails(domain string) int {
	if f.exempt[domain] || !f.in(domain, saltTransient, f.cfg.TransientRate) {
		return 0
	}
	return 1 + int(f.hash(domain, saltTransientFails)%uint64(f.cfg.TransientMaxFails))
}

// degradeFails returns how many leading attempts are answered with an
// injected 502/503 for domain (0: never degraded).
func (f *FaultInjector) degradeFails(domain string) int {
	if f.exempt[domain] || !f.in(domain, saltDegrade, f.cfg.DegradeRate) {
		return 0
	}
	return 1 + int(f.hash(domain, saltDegradeFails)%uint64(f.cfg.DegradeMaxFails))
}

// At returns the injected fault for the given attempt (0-based) against
// host. Classes are checked in severity order — permanent outage, then
// transient transport error, then HTTP degradation, then latency spike —
// and the decision is a pure function of (registered domain, attempt).
// The registered domain is resolved exactly once per call; it previously
// was recomputed by every per-class helper, up to four times per request.
func (f *FaultInjector) At(host string, attempt int) Fault {
	domain := f.domainOf(host)
	if f.exempt[domain] {
		return Fault{}
	}
	if f.in(domain, saltPermanent, f.cfg.ConnectFailRate) {
		return Fault{Err: f.flavour(domain)}
	}
	if k := f.transientFails(domain); attempt < k {
		return Fault{Err: f.flavour(domain)}
	}
	if k := f.degradeFails(domain); attempt < k {
		status := http.StatusBadGateway
		if f.hash(domain, saltDegradeStatus)%2 == 1 {
			status = http.StatusServiceUnavailable
		}
		retryAfter := time.Duration(1+f.hash(domain, saltRetryAfter)%3) * time.Second
		return Fault{Status: status, RetryAfter: retryAfter}
	}
	if attempt == 0 && f.in(domain, saltSpike, f.cfg.SpikeRate) {
		return Fault{ExtraLatency: f.cfg.SpikeLatency}
	}
	return Fault{}
}

// hash is FNV-1a over (seed, salt, domain), computed inline: the
// hash/fnv object allocated per call in a path hit once per request.
// The byte order matches the previous fnv.New64a implementation, so
// fault populations are unchanged.
func (f *FaultInjector) hash(domain string, salt uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(f.seed >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(salt >> (8 * i)))
		h *= prime64
	}
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= prime64
	}
	return h
}

// timeoutError mimics a dial timeout; it satisfies net.Error.
type timeoutError struct{}

func (*timeoutError) Error() string   { return "i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// VirtualClock is a monotonically advancing simulated clock. Crawl
// timestamps (cookie creation, expiry horizons) come from here, so runs are
// instant in wall time yet produce realistic-looking time data. A crawl
// gives each walk its own clock, shared by the walk's four browsers.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the virtual time origin: a fixed instant so datasets are
// reproducible byte for byte.
var Epoch = time.Date(2022, time.March, 1, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a clock starting at Epoch.
func NewVirtualClock() *VirtualClock { return &VirtualClock{now: Epoch} }

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (ignoring non-positive values) and
// returns the new time. A nil clock ignores every advance.
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	if c == nil {
		return time.Time{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}
