package tokens

import (
	"context"
	"net/url"
	"sort"
	"sync"

	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/intern"
	"crumbcruncher/internal/parallel"
	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/telemetry"
)

// PathNode is one hop of a navigation path.
type PathNode struct {
	URL    string
	Host   string // FQDN
	Domain string // registered domain
	// Tokens are the leaf tokens extracted from the hop URL's query
	// parameters.
	Tokens []Pair
}

// Path is one crawler's navigation path for one step: the originator,
// every redirector hop and the destination.
type Path struct {
	Walk    int
	Step    int
	Crawler string
	Profile string
	Nodes   []PathNode
}

// Originator returns the path's first node.
func (p *Path) Originator() PathNode { return p.Nodes[0] }

// Destination returns the path's last node.
func (p *Path) Destination() PathNode { return p.Nodes[len(p.Nodes)-1] }

// Redirectors returns the middle nodes.
func (p *Path) Redirectors() []PathNode {
	if len(p.Nodes) <= 2 {
		return nil
	}
	return p.Nodes[1 : len(p.Nodes)-1]
}

// URLKey returns the path's identity as a full-URL sequence (the paper's
// "URL path").
func (p *Path) URLKey() string {
	key := ""
	for _, n := range p.Nodes {
		key += n.URL + " → "
	}
	return key
}

// DomainKey returns the path's identity as a registered-domain sequence
// (the paper's "domain path").
func (p *Path) DomainKey() string {
	key := ""
	for _, n := range p.Nodes {
		key += n.Domain + " → "
	}
	return key
}

// nodeFrom parses a URL into a PathNode with extracted query tokens.
// Hosts, registered domains and token names repeat across nearly every
// hop, so they are routed through the run's interner: Host and Domain
// would otherwise be substrings pinning the full URL string, and each
// token name its own small allocation.
func nodeFrom(raw string, in *intern.Interner) (PathNode, bool) {
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return PathNode{}, false
	}
	host := in.Intern(u.Hostname())
	n := PathNode{URL: raw, Host: host, Domain: in.Intern(regDomain(host))}
	for name, vs := range u.Query() {
		for _, v := range vs {
			start := len(n.Tokens)
			n.Tokens = append(n.Tokens, Extract(name, v)...)
			for i := start; i < len(n.Tokens); i++ {
				n.Tokens[i].Name = in.Intern(n.Tokens[i].Name)
			}
		}
	}
	sort.Slice(n.Tokens, func(i, j int) bool {
		if n.Tokens[i].Name != n.Tokens[j].Name {
			return n.Tokens[i].Name < n.Tokens[j].Name
		}
		return n.Tokens[i].Value < n.Tokens[j].Value
	})
	return n, true
}

func regDomain(host string) string {
	if rd := publicsuffix.RegisteredDomain(host); rd != "" {
		return rd
	}
	return host
}

// PathsFromDataset reconstructs every navigation path in the crawl: one
// per (walk, step, crawler) whose click produced at least one hop. Data
// from unsynchronized (divergent) steps is included, as in the paper
// (§3.3: "We still include data from this unsynchronized step in our
// analyses").
func PathsFromDataset(ds *crawler.Dataset) []*Path {
	out, _ := PathsFromDatasetCtx(context.Background(), ds, 1, nil)
	return out
}

// PathsFromDatasetCtx is PathsFromDataset sharded across walks over a
// bounded worker pool and bounded by ctx. Each walk's paths are
// reconstructed independently and concatenated in walk-slice order, so
// the output is identical to the sequential pass for any parallelism.
// Per-walk shard wall times land in the tokens.path_shard_us histogram
// and the path total in the tokens.paths counter; a nil Telemetry
// records nothing. Cancellation stops the shard pool from taking new
// walks and returns ctx's error with a partial (unusable) result.
func PathsFromDatasetCtx(ctx context.Context, ds *crawler.Dataset, parallelism int, tel *telemetry.Telemetry) ([]*Path, error) {
	names := ds.Crawlers
	if len(names) == 0 {
		names = crawler.AllCrawlers
	}
	reg := tel.Registry()
	// One interner per entry-point call: canonical strings are shared
	// across this dataset's walks but never across runs.
	in := intern.New(ds.Seed)
	perWalk := make([][]*Path, len(ds.Walks))
	err := parallel.ForEachTimedCtx(ctx, len(ds.Walks), parallelism, func(i int) {
		perWalk[i] = pathsFromWalk(ds.Walks[i], names, in)
	}, reg.Histogram("tokens.path_shard_us").Microseconds())
	if err != nil {
		return nil, err
	}
	total := 0
	for _, ps := range perWalk {
		total += len(ps)
	}
	out := make([]*Path, 0, total)
	for _, ps := range perWalk {
		out = append(out, ps...)
	}
	reg.Counter("tokens.paths").Add(int64(total))
	return out, nil
}

// pathsFromWalk reconstructs one walk's navigation paths in (step,
// crawler) order.
func pathsFromWalk(w *crawler.Walk, names []string, in *intern.Interner) []*Path {
	var out []*Path
	if w == nil {
		return nil
	}
	for _, s := range w.Steps {
		for _, name := range names {
			rec := s.Records[name]
			if rec == nil || rec.StartURL == "" || len(rec.NavChain) == 0 {
				continue
			}
			p := &Path{Walk: w.Index, Step: s.Index, Crawler: name, Profile: rec.Profile}
			if n, ok := nodeFrom(rec.StartURL, in); ok {
				p.Nodes = make([]PathNode, 0, 1+len(rec.NavChain))
				p.Nodes = append(p.Nodes, n)
			} else {
				continue
			}
			bad := false
			for _, hop := range rec.NavChain {
				n, ok := nodeFrom(hop.URL, in)
				if !ok {
					bad = true
					break
				}
				p.Nodes = append(p.Nodes, n)
			}
			if bad || len(p.Nodes) < 2 {
				continue
			}
			out = append(out, p)
		}
	}
	return out
}

// Candidate is a token observed crossing at least one first-party
// boundary as a query parameter inside one navigation path — a potential
// UID smuggling instance before UID identification.
type Candidate struct {
	Name    string
	Value   string
	Walk    int
	Step    int
	Crawler string
	Profile string
	Path    *Path
	// FirstIdx/LastIdx are the node indices of the token's first and
	// last appearance in the path's query parameters (node 0 is the
	// originator, which has no incoming navigation, so FirstIdx >= 1
	// unless the token already sat on the originator URL).
	FirstIdx int
	LastIdx  int
	// Crossings is the number of registered-domain boundaries the token
	// crossed while present.
	Crossings int
}

// candMapPool recycles FindCandidates' per-path scratch map. The reset
// contract (see DESIGN.md §10): a map returned to the pool is cleared
// first, so a pooled map is indistinguishable from a fresh one and
// pooling can only change allocation counts, never output.
var candMapPool = sync.Pool{
	New: func() any { return make(map[Pair]*Candidate, 16) },
}

// FindCandidates scans a path for tokens transferred across first-party
// contexts: a token counts when it appears in the query parameters of a
// hop whose registered domain differs from the previous hop's (§3.6). A
// token that appears on consecutive same-domain hops only is discarded,
// as are tokens never passed as query parameters at all.
func FindCandidates(p *Path) []*Candidate {
	found := candMapPool.Get().(map[Pair]*Candidate)
	defer func() {
		clear(found)
		candMapPool.Put(found)
	}()
	for i, node := range p.Nodes {
		for _, tok := range node.Tokens {
			c := found[tok]
			if c == nil {
				c = &Candidate{
					Name: tok.Name, Value: tok.Value,
					Walk: p.Walk, Step: p.Step, Crawler: p.Crawler, Profile: p.Profile,
					Path: p, FirstIdx: i, LastIdx: i,
				}
				found[tok] = c
			}
			c.LastIdx = i
			if i > 0 && p.Nodes[i].Domain != p.Nodes[i-1].Domain {
				c.Crossings++
			}
		}
	}
	out := make([]*Candidate, 0, len(found))
	for _, c := range found {
		if c.Crossings > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// AllCandidates runs FindCandidates over every path.
func AllCandidates(paths []*Path) []*Candidate {
	out, _ := AllCandidatesCtx(context.Background(), paths, 1, nil)
	return out
}

// AllCandidatesCtx is AllCandidates over a bounded worker pool, bounded
// by ctx. Per-path results merge in path order, so the output is
// identical to the sequential pass for any parallelism. Per-path
// candidate counts land in the tokens.candidates_per_path histogram (a
// deterministic distribution), shard wall times in
// tokens.candidate_shard_us, and the candidate total in the
// tokens.candidates counter. Cancellation stops the shard pool from
// taking new paths and returns ctx's error with a partial (unusable)
// result.
func AllCandidatesCtx(ctx context.Context, paths []*Path, parallelism int, tel *telemetry.Telemetry) ([]*Candidate, error) {
	reg := tel.Registry()
	perPathHist := reg.Histogram("tokens.candidates_per_path")
	perPath := make([][]*Candidate, len(paths))
	err := parallel.ForEachTimedCtx(ctx, len(paths), parallelism, func(i int) {
		perPath[i] = FindCandidates(paths[i])
		perPathHist.Observe(int64(len(perPath[i])))
	}, reg.Histogram("tokens.candidate_shard_us").Microseconds())
	if err != nil {
		return nil, err
	}
	total := 0
	for _, cs := range perPath {
		total += len(cs)
	}
	out := make([]*Candidate, 0, total)
	for _, cs := range perPath {
		out = append(out, cs...)
	}
	reg.Counter("tokens.candidates").Add(int64(total))
	return out, nil
}
