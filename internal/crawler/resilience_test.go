package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/web"
)

// TestDeriveOutcomePrecedence pins the outcome precedence order:
// connect > no-common-element > click-failed > divergent > OK — including
// padded steps where some crawlers have no record at all.
func TestDeriveOutcomePrecedence(t *testing.T) {
	land := func(host string) *CrawlerStep {
		return &CrawlerStep{LandedURL: "http://" + host + "/p"}
	}
	connect := &CrawlerStep{Fail: "connect: dial tcp: connection refused"}
	noMatch := &CrawlerStep{Fail: "no common element"}
	clickFail := &CrawlerStep{Fail: "click: no such element"}

	cases := []struct {
		name    string
		records map[string]*CrawlerStep
		want    StepOutcome
	}{
		{
			"all land same host",
			map[string]*CrawlerStep{Safari1: land("a.com"), Safari2: land("a.com"), Chrome3: land("a.com")},
			OutcomeOK,
		},
		{
			"divergent landings",
			map[string]*CrawlerStep{Safari1: land("a.com"), Safari2: land("b.com"), Chrome3: land("a.com")},
			OutcomeDivergent,
		},
		{
			"partial records never OK",
			map[string]*CrawlerStep{Safari1: land("a.com"), Safari2: land("a.com")},
			OutcomeDivergent,
		},
		{
			"no records at all",
			map[string]*CrawlerStep{},
			OutcomeDivergent,
		},
		{
			"connect beats everything",
			map[string]*CrawlerStep{Safari1: connect, Safari2: noMatch, Chrome3: clickFail},
			OutcomeConnectError,
		},
		{
			"connect beats landings",
			map[string]*CrawlerStep{Safari1: land("a.com"), Safari2: land("a.com"), Chrome3: connect},
			OutcomeConnectError,
		},
		{
			"no-common-element beats click failure",
			map[string]*CrawlerStep{Safari1: noMatch, Safari2: clickFail, Chrome3: land("a.com")},
			OutcomeNoCommonElement,
		},
		{
			"click failure beats divergence",
			map[string]*CrawlerStep{Safari1: clickFail, Safari2: land("a.com"), Chrome3: land("b.com")},
			OutcomeClickFailed,
		},
		{
			"click failure with partial records",
			map[string]*CrawlerStep{Safari1: clickFail},
			OutcomeClickFailed,
		},
	}
	for _, tc := range cases {
		s := &Step{Records: tc.records}
		if got := deriveOutcome(s); got != tc.want {
			t.Errorf("%s: deriveOutcome = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// deadNetwork is a network where every non-exempt domain refuses
// connections.
func deadNetwork(seed int64) *netsim.Network {
	n := netsim.New()
	n.SetFaults(netsim.NewFaultInjector(seed, 1.0))
	return n
}

// TestSeedFailureRecordsEveryCrawler is the satellite regression for the
// stale-error and trailer-gap bugs: when the seed navigation fails, every
// step record — all three parallel crawlers AND Safari-1R — must exist
// and carry a connect failure derived from that crawler's own state.
func TestSeedFailureRecordsEveryCrawler(t *testing.T) {
	ds, err := CrawlContext(context.Background(), Config{
		Seed:         3,
		Network:      deadNetwork(3),
		Seeders:      []string{"dead.example.com"},
		Walks:        1,
		StepsPerWalk: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := ds.Walks[0]
	for _, name := range AllCrawlers {
		rec := w.SeedLoad[name]
		if rec == nil {
			t.Fatalf("seed load record missing for %s", name)
		}
		if !strings.HasPrefix(rec.Fail, "connect:") {
			t.Fatalf("%s seed Fail = %q, want connect failure", name, rec.Fail)
		}
	}
	if len(w.Steps) == 0 {
		t.Fatal("no step recorded after seed failure")
	}
	s := w.Steps[0]
	for _, name := range ParallelCrawlers {
		rec := s.Records[name]
		if rec == nil {
			t.Fatalf("step 1 record missing for %s (stale-error path)", name)
		}
		if !strings.HasPrefix(rec.Fail, "connect:") {
			t.Fatalf("%s step 1 Fail = %q, want its own connect failure", name, rec.Fail)
		}
	}
	// The trailer gap: Safari-1R must get a step record even though
	// Safari-1 had no live page.
	rec := s.Records[Safari1R]
	if rec == nil {
		t.Fatal("Safari-1R step 1 record missing (trailer gap)")
	}
	if !strings.HasPrefix(rec.Fail, "connect:") {
		t.Fatalf("Safari-1R step 1 Fail = %q, want the connect failure", rec.Fail)
	}
	if s.Outcome != OutcomeConnectError || w.Ended != OutcomeConnectError {
		t.Fatalf("outcome = %s, ended = %s, want connect-error", s.Outcome, w.Ended)
	}
	if w.Degraded == "" {
		t.Error("connect-terminated walk not quarantined with a reason")
	}
}

// TestRetryRecoversTransientSeeder drives a flaky seeder (first attempts
// fail, then recover) through the retry layer and proves the walk keeps
// its measurement instead of losing the site.
func TestRetryRecoversTransientSeeder(t *testing.T) {
	n := netsim.New()
	n.SetFaults(netsim.NewFaultInjectorConfig(5, netsim.FaultConfig{TransientRate: 1, TransientMaxFails: 2}))
	n.HandleFunc("flaky.example.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body>hello</body></html>")
	})
	tel := telemetry.New(nil, 64)
	ds, err := CrawlContext(context.Background(), Config{
		Seed:         5,
		Network:      n,
		Seeders:      []string{"flaky.example.com"},
		Walks:        1,
		StepsPerWalk: 1,
		Telemetry:    tel,
		Retry:        resilience.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := ds.Walks[0]
	for _, name := range AllCrawlers {
		rec := w.SeedLoad[name]
		if rec == nil || rec.Fail != "" {
			t.Fatalf("%s seed load = %+v, want recovered success", name, rec)
		}
		if rec.LandedURL == "" {
			t.Fatalf("%s has no landing despite recovery", name)
		}
	}
	if w.Ended == OutcomeConnectError {
		t.Fatal("walk lost to a transient failure despite retries")
	}
	reg := tel.Registry()
	if v := reg.Counter("resilience.retries").Value(); v == 0 {
		t.Error("no retries counted for a transient seeder")
	}
	if v := reg.Counter("resilience.recovered").Value(); v == 0 {
		t.Error("no recovered sequences counted")
	}
	if v := reg.Counter("resilience.exhausted").Value(); v != 0 {
		t.Errorf("exhausted = %d, want 0 (domain recovers within the policy)", v)
	}
	// Without retries the same world loses the walk — the control arm.
	n2 := netsim.New()
	n2.SetFaults(netsim.NewFaultInjectorConfig(5, netsim.FaultConfig{TransientRate: 1, TransientMaxFails: 2}))
	n2.HandleFunc("flaky.example.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body>hello</body></html>")
	})
	ds2, err := CrawlContext(context.Background(), Config{
		Seed:         5,
		Network:      n2,
		Seeders:      []string{"flaky.example.com"},
		Walks:        1,
		StepsPerWalk: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ds2.Walks[0].Ended; got != OutcomeConnectError {
		t.Fatalf("control walk ended %q, want connect-error without retries", got)
	}
}

// marshalDataset renders a dataset to bytes for byte-identity checks.
func marshalDataset(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// faultyCrawl runs a world with transient faults, degraded responses
// and deadline-blowing latency spikes, with retries, at the given
// parallelism.
func faultyCrawl(t *testing.T, parallelism int) *Dataset {
	t.Helper()
	cfg := web.SmallConfig()
	cfg.TransientFailRate = 0.3
	cfg.HTTPDegradeRate = 0.2
	cfg.LatencySpikeRate = 0.2
	w := web.BuildWorld(cfg)
	w.Network().SetRequestDeadline(2 * time.Second)
	ds, err := CrawlContext(context.Background(), Config{
		Seed:        cfg.Seed,
		Network:     w.Network(),
		Seeders:     w.Seeders(),
		Walks:       8,
		Parallelism: parallelism,
		Retry:       resilience.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCrawlWithRetriesDeterministicAtParallelism1 proves two same-seed
// crawls with transient faults and retries enabled are byte-identical.
func TestCrawlWithRetriesDeterministicAtParallelism1(t *testing.T) {
	a := marshalDataset(t, faultyCrawl(t, 1))
	b := marshalDataset(t, faultyCrawl(t, 1))
	if string(a) != string(b) {
		t.Fatal("datasets differ between identical runs at Parallelism 1")
	}
}

// TestCrawlWithRetriesDeterministicAtParallelism8 proves fault, retry
// and deadline outcomes — and every timestamp the walks record — are
// independent of goroutine scheduling: the dataset is byte-identical at
// parallelism 1, 4 and 16.
func TestCrawlWithRetriesDeterministicAtParallelism8(t *testing.T) {
	ref := marshalDataset(t, faultyCrawl(t, 1))
	for _, par := range []int{4, 16} {
		if got := marshalDataset(t, faultyCrawl(t, par)); !bytes.Equal(got, ref) {
			t.Errorf("dataset at parallelism %d differs from parallelism 1", par)
		}
	}
}

// memLog is an in-memory WalkLog. Walks are held as JSON, so a resumed
// crawl gets decoded copies, as it would from a run store on disk.
type memLog struct {
	mu    sync.Mutex
	walks map[int][]byte
}

func (l *memLog) Recorded(idx int) (*Walk, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.walks[idx]
	if !ok {
		return nil, nil
	}
	var w Walk
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

func (l *memLog) Append(w *Walk) error {
	b, err := json.Marshal(w)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.walks[w.Index] = b
	return nil
}

// TestCheckpointResumeByteIdentical cancels a crawl after 3 of 6 walks,
// resumes it from the walk log the interrupted crawl recorded to, and
// proves the combined dataset is byte-identical to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	cfg := web.SmallConfig()
	cfg.TransientFailRate = 0.3
	crawlCfg := func(w *web.World) Config {
		return Config{
			Seed:        cfg.Seed,
			Network:     w.Network(),
			Seeders:     w.Seeders(),
			Walks:       6,
			Parallelism: 1,
			Retry:       resilience.DefaultPolicy(),
		}
	}

	// The uninterrupted reference run.
	full, err := CrawlContext(context.Background(), crawlCfg(web.BuildWorld(cfg)))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the third walk completes.
	log := &memLog{walks: map[int][]byte{}}
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	icfg := crawlCfg(web.BuildWorld(cfg))
	icfg.Log = log
	icfg.OnWalkComplete = func(*Walk) {
		if done++; done == 3 {
			cancel()
		}
	}
	partial, err := CrawlContext(ctx, icfg)
	if err == nil {
		t.Fatal("cancelled crawl returned nil error")
	}
	cancel()
	skipped := 0
	for _, w := range partial.Walks {
		if w.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("cancellation skipped no walks; the resume arm would be vacuous")
	}
	if n := len(log.walks); n != 3 {
		t.Fatalf("walk log holds %d walks, want 3", n)
	}

	// Resume from the log with a fresh world.
	rcfg := crawlCfg(web.BuildWorld(cfg))
	rcfg.Log = log
	resumed, err := CrawlContext(context.Background(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range resumed.Walks {
		if w.Skipped {
			t.Fatalf("walk %d still skipped after resume", w.Index)
		}
	}
	if n := len(log.walks); n != 6 {
		t.Fatalf("walk log holds %d walks after the resume, want 6", n)
	}
	if a, b := marshalDataset(t, full), marshalDataset(t, resumed); string(a) != string(b) {
		t.Fatal("resumed dataset differs from the uninterrupted run")
	}
}

// TestPanicDegradesWalk: a panic inside a walk — here a handler that
// panics on the seeder's page — quarantines that walk with the panic as
// its reason instead of crashing the crawl, and the other walks are
// crawled as usual.
func TestPanicDegradesWalk(t *testing.T) {
	n := netsim.New()
	n.HandleFunc("boom.example.com", func(http.ResponseWriter, *http.Request) { panic("handler exploded") })
	n.HandleFunc("calm.example.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body>calm</body></html>")
	})
	ds, err := CrawlContext(context.Background(), Config{
		Seed:         9,
		Network:      n,
		Seeders:      []string{"boom.example.com", "calm.example.com"},
		Walks:        4,
		StepsPerWalk: 2,
		Parallelism:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ds.Walks {
		boom := w.Seeder == "boom.example.com"
		if got := strings.Contains(w.Degraded, "panic: handler exploded"); got != boom {
			t.Errorf("walk %d (%s): Degraded = %q", w.Index, w.Seeder, w.Degraded)
		}
		if !boom && w.SeedLoad[Safari1R] == nil {
			t.Errorf("walk %d: calm walk lost its seed loads", w.Index)
		}
	}
}
