// Package analysis computes every table and figure in the paper's
// evaluation (§5): the navigation-path summary (Table 2), the redirector
// ranking with dedicated/multi-purpose classification (Table 3, §5.1),
// originator/destination organisations (Figure 4) and categories
// (Figure 5), third-party UID leakage (Figure 6), redirector-count and
// path-portion distributions (Figures 7 and 8), the headline smuggling
// rate, bounce tracking (§8), the fingerprinting experiment (§3.5), crawl
// failure rates (§3.3), and blocklist coverage gaps (§5.1, §7.1).
package analysis

import (
	"context"
	"sort"
	"sync"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/parallel"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
)

// WalkSource abstracts where walk records come from: an in-memory
// crawler.Dataset or a run store read back from disk. The figures that
// need walk records beyond the Tally — third-party receivers, UID
// provenance, and the evaluation-only referer count — go through this
// interface, so a store-backed analysis produces byte-identical output
// to an in-memory one by construction. ForEachWalk must deliver walks
// in ascending index order; Walk returns nil for an unknown index.
type WalkSource interface {
	WalkCount() int
	ForEachWalk(fn func(*crawler.Walk) error) error
	Walk(idx int) *crawler.Walk
}

// Analysis holds the crawl products and the indexes derived from them.
type Analysis struct {
	src   WalkSource
	paths []*tokens.Path
	cases []*uid.Case

	// urlPaths indexes unique URL paths.
	urlPaths map[string]*pathAgg
	// smugglingPaths maps the identity of paths that carried a confirmed
	// UID.
	smugglingPaths map[*tokens.Path]bool
	// casesByPath groups cases by the paths their candidates traversed.
	casesByPath map[*tokens.Path][]*uid.Case
	// endFQDNs is every FQDN observed as an originator or destination
	// anywhere in the crawl — input to the dedicated-smuggler rule.
	endFQDNs map[string]bool
	// redirectors indexes every redirector FQDN seen in smuggling paths.
	redirectors map[string]*redirectorAgg
	// dedicated caches the classification.
	dedicated map[string]bool

	// tally is the per-walk scan; tallyOnce fills it from src when the
	// constructor was not handed one.
	tally     *Tally
	tallyOnce sync.Once
}

// pathAgg aggregates one unique URL path.
type pathAgg struct {
	rep       *tokens.Path // representative instance
	smuggling bool
	uidCount  int
}

// redirectorAgg aggregates one redirector FQDN across smuggling paths.
type redirectorAgg struct {
	originDomains map[string]bool
	destDomains   map[string]bool
	domainPaths   map[string]bool
}

// pathPartial is one chunk's contribution to the unique-URL-path index:
// per-key aggregates plus the chunk's first-occurrence key order, so the
// ordered reduce can keep the globally-first path as each key's
// representative — exactly what a sequential pass produces.
type pathPartial struct {
	order    []string
	aggs     map[string]*pathAgg
	endFQDNs map[string]bool
}

// redirPartial is one chunk's contribution to the redirector index.
type redirPartial struct {
	order []string
	aggs  map[string]*redirectorAgg
}

// NewContext is NewFromSource over an in-memory dataset.
func NewContext(ctx context.Context, ds *crawler.Dataset, paths []*tokens.Path, cases []*uid.Case, parallelism int, tel *telemetry.Telemetry) (*Analysis, error) {
	return NewFromSource(ctx, ds, paths, cases, parallelism, tel)
}

// NewFromSource builds the analysis over any WalkSource — an in-memory
// dataset or a run store — so 100k-walk runs can be analysed without
// the decoded dataset ever being resident at once. Output is
// byte-identical to the dataset path for the same walks. The walk Tally
// is scanned from src on first use; NewFromTally takes one the caller
// already has.
//
// The path and redirector aggregations are sharded across a bounded
// worker pool: chunks are mapped concurrently and reduced in chunk
// order, so the result is bit-identical to New for any parallelism.
// Per-chunk wall times land in the analysis.path_shard_us and
// analysis.redirector_shard_us histograms and index sizes in
// analysis.* counters; a nil Telemetry records nothing. Cancellation
// stops the aggregation pools from taking new chunks and returns ctx's
// error with a nil Analysis.
func NewFromSource(ctx context.Context, src WalkSource, paths []*tokens.Path, cases []*uid.Case, parallelism int, tel *telemetry.Telemetry) (*Analysis, error) {
	return NewFromTally(ctx, src, nil, paths, cases, parallelism, tel)
}

// NewFromTally is NewFromSource with the walk Tally of src supplied —
// the analysis engine's, filled while the walks streamed through it —
// so no figure re-reads src for it. A nil tally is scanned from src on
// first use.
func NewFromTally(ctx context.Context, src WalkSource, tally *Tally, paths []*tokens.Path, cases []*uid.Case, parallelism int, tel *telemetry.Telemetry) (*Analysis, error) {
	reg := tel.Registry()
	a := &Analysis{
		src:            src,
		tally:          tally,
		paths:          paths,
		cases:          cases,
		urlPaths:       map[string]*pathAgg{},
		smugglingPaths: map[*tokens.Path]bool{},
		casesByPath:    map[*tokens.Path][]*uid.Case{},
		endFQDNs:       map[string]bool{},
		redirectors:    map[string]*redirectorAgg{},
		dedicated:      map[string]bool{},
	}
	for _, c := range cases {
		for _, cand := range c.Candidates {
			a.smugglingPaths[cand.Path] = true
			a.casesByPath[cand.Path] = append(a.casesByPath[cand.Path], c)
		}
	}

	// Map: aggregate unique URL paths per contiguous chunk.
	chunks := parallel.Chunks(len(paths), parallelism)
	pathParts := make([]*pathPartial, len(chunks))
	err := parallel.ForEachTimedCtx(ctx, len(chunks), parallelism, func(ci int) {
		ch := chunks[ci]
		part := &pathPartial{aggs: map[string]*pathAgg{}, endFQDNs: map[string]bool{}}
		for _, p := range paths[ch.Lo:ch.Hi] {
			key := p.URLKey()
			agg := part.aggs[key]
			if agg == nil {
				agg = &pathAgg{rep: p}
				part.aggs[key] = agg
				part.order = append(part.order, key)
			}
			if a.smugglingPaths[p] {
				agg.smuggling = true
				agg.uidCount += len(a.casesByPath[p])
			}
			part.endFQDNs[p.Originator().Host] = true
			part.endFQDNs[p.Destination().Host] = true
		}
		pathParts[ci] = part
	}, reg.Histogram("analysis.path_shard_us").Microseconds())
	if err != nil {
		return nil, err
	}
	// Reduce in chunk order: the first chunk to see a key contributes
	// its representative; later chunks only fold in their counts.
	for _, part := range pathParts {
		for _, key := range part.order {
			pagg := part.aggs[key]
			agg := a.urlPaths[key]
			if agg == nil {
				a.urlPaths[key] = pagg
				continue
			}
			agg.smuggling = agg.smuggling || pagg.smuggling
			agg.uidCount += pagg.uidCount
		}
		for h := range part.endFQDNs {
			a.endFQDNs[h] = true
		}
	}

	// Redirector aggregation over smuggling paths (§5.1). Iterating the
	// path slice (filtered to smuggling paths) instead of the smuggling
	// set keeps the shards deterministic; the aggregates are set unions,
	// so the merged result matches the sequential pass.
	var smuggling []*tokens.Path
	for _, p := range paths {
		if a.smugglingPaths[p] {
			smuggling = append(smuggling, p)
		}
	}
	rchunks := parallel.Chunks(len(smuggling), parallelism)
	redirParts := make([]*redirPartial, len(rchunks))
	err = parallel.ForEachTimedCtx(ctx, len(rchunks), parallelism, func(ci int) {
		ch := rchunks[ci]
		part := &redirPartial{aggs: map[string]*redirectorAgg{}}
		for _, p := range smuggling[ch.Lo:ch.Hi] {
			for _, r := range p.Redirectors() {
				agg := part.aggs[r.Host]
				if agg == nil {
					agg = &redirectorAgg{
						originDomains: map[string]bool{},
						destDomains:   map[string]bool{},
						domainPaths:   map[string]bool{},
					}
					part.aggs[r.Host] = agg
					part.order = append(part.order, r.Host)
				}
				agg.originDomains[p.Originator().Domain] = true
				agg.destDomains[p.Destination().Domain] = true
				agg.domainPaths[p.DomainKey()] = true
			}
		}
		redirParts[ci] = part
	}, reg.Histogram("analysis.redirector_shard_us").Microseconds())
	if err != nil {
		return nil, err
	}
	for _, part := range redirParts {
		for _, host := range part.order {
			pagg := part.aggs[host]
			agg := a.redirectors[host]
			if agg == nil {
				a.redirectors[host] = pagg
				continue
			}
			for d := range pagg.originDomains {
				agg.originDomains[d] = true
			}
			for d := range pagg.destDomains {
				agg.destDomains[d] = true
			}
			for d := range pagg.domainPaths {
				agg.domainPaths[d] = true
			}
		}
	}

	// Dedicated-smuggler classification (§5.1): multiple originator
	// registered domains, multiple destination registered domains, and
	// the FQDN never observed as an originator or destination.
	for host, agg := range a.redirectors {
		a.dedicated[host] = len(agg.originDomains) >= 2 &&
			len(agg.destDomains) >= 2 &&
			!a.endFQDNs[host]
	}
	reg.Counter("analysis.unique_url_paths").Add(int64(len(a.urlPaths)))
	reg.Counter("analysis.smuggling_paths").Add(int64(len(a.smugglingPaths)))
	reg.Counter("analysis.redirectors").Add(int64(len(a.redirectors)))
	return a, nil
}

// Cases returns the confirmed UID cases.
func (a *Analysis) Cases() []*uid.Case { return a.cases }

// Source returns the walk source the analysis was built over.
func (a *Analysis) Source() WalkSource { return a.src }

// Tally returns the per-walk scan the walk-counting figures read,
// scanning the source once if the analysis was built without one.
func (a *Analysis) Tally() *Tally {
	a.tallyOnce.Do(func() {
		if a.tally != nil {
			return
		}
		t := NewTally()
		a.src.ForEachWalk(func(w *crawler.Walk) error {
			t.Add(w)
			return nil
		})
		a.tally = t
	})
	return a.tally
}

// WalkCount returns the number of walks in the analysed crawl.
func (a *Analysis) WalkCount() int { return a.Tally().walks }

// StepCount returns the number of attempted steps in the analysed
// crawl.
func (a *Analysis) StepCount() int {
	n, _ := a.Tally().steps()
	return n
}

// Summary is the paper's Table 2.
type Summary struct {
	UniqueURLPaths             int
	UniqueURLPathsSmuggling    int
	UniqueDomainPathsSmuggling int
	UniqueRedirectors          int
	DedicatedSmugglers         int
	MultiPurposeSmugglers      int
	UniqueOriginators          int
	UniqueDestinations         int
}

// Summarize computes Table 2.
func (a *Analysis) Summarize() Summary {
	var s Summary
	s.UniqueURLPaths = len(a.urlPaths)
	domainPaths := map[string]bool{}
	origins := map[string]bool{}
	dests := map[string]bool{}
	for _, agg := range a.urlPaths {
		if !agg.smuggling {
			continue
		}
		s.UniqueURLPathsSmuggling++
		domainPaths[agg.rep.DomainKey()] = true
		origins[agg.rep.Originator().Domain] = true
		dests[agg.rep.Destination().Domain] = true
	}
	s.UniqueDomainPathsSmuggling = len(domainPaths)
	s.UniqueRedirectors = len(a.redirectors)
	for _, d := range a.dedicated {
		if d {
			s.DedicatedSmugglers++
		} else {
			s.MultiPurposeSmugglers++
		}
	}
	s.UniqueOriginators = len(origins)
	s.UniqueDestinations = len(dests)
	return s
}

// SmugglingRate is the headline result: the fraction of unique URL paths
// carrying UID smuggling (paper: 8.11%).
func (a *Analysis) SmugglingRate() float64 {
	if len(a.urlPaths) == 0 {
		return 0
	}
	n := 0
	for _, agg := range a.urlPaths {
		if agg.smuggling {
			n++
		}
	}
	return float64(n) / float64(len(a.urlPaths))
}

// BounceRate is the fraction of unique URL paths that pass through at
// least one redirector without transferring a UID — bounce tracking
// without smuggling (paper §8: 2.7%).
func (a *Analysis) BounceRate() float64 {
	if len(a.urlPaths) == 0 {
		return 0
	}
	n := 0
	for _, agg := range a.urlPaths {
		if !agg.smuggling && len(agg.rep.Redirectors()) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(a.urlPaths))
}

// IsDedicated reports the dedicated-smuggler classification of a
// redirector FQDN.
func (a *Analysis) IsDedicated(host string) bool { return a.dedicated[host] }

// DedicatedSmugglers returns the classified dedicated-smuggler FQDNs,
// sorted.
func (a *Analysis) DedicatedSmugglers() []string {
	var out []string
	for host, d := range a.dedicated {
		if d {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}

// RedirectorRow is one row of Table 3.
type RedirectorRow struct {
	Host string
	// Count is the number of unique domain paths the redirector appears
	// in.
	Count int
	// PctDomainPaths is Count as a percentage of all smuggling domain
	// paths.
	PctDomainPaths float64
	// MultiPurpose marks non-dedicated smugglers (the asterisk in
	// Table 3).
	MultiPurpose bool
}

// TopRedirectors computes Table 3: the most common redirectors in unique
// smuggling domain paths. n <= 0 returns all.
func (a *Analysis) TopRedirectors(n int) []RedirectorRow {
	totalDomainPaths := a.Summarize().UniqueDomainPathsSmuggling
	rows := make([]RedirectorRow, 0, len(a.redirectors))
	for host, agg := range a.redirectors {
		row := RedirectorRow{
			Host:         host,
			Count:        len(agg.domainPaths),
			MultiPurpose: !a.dedicated[host],
		}
		if totalDomainPaths > 0 {
			row.PctDomainPaths = 100 * float64(row.Count) / float64(totalDomainPaths)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Host < rows[j].Host
	})
	if n > 0 && n < len(rows) {
		rows = rows[:n]
	}
	return rows
}

// smugglingAggs returns the unique smuggling path aggregates in
// deterministic order.
func (a *Analysis) smugglingAggs() []*pathAgg {
	keys := make([]string, 0, len(a.urlPaths))
	for k, agg := range a.urlPaths {
		if agg.smuggling {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*pathAgg, len(keys))
	for i, k := range keys {
		out[i] = a.urlPaths[k]
	}
	return out
}
