// Package intern provides a concurrency-safe, seeded-stable string
// interner for the token pipeline's high-repetition strings: registered
// domains, FQDNs and query-parameter names recur across every walk, and
// before interning each occurrence either held its own heap copy or —
// worse — pinned the multi-kilobyte URL/page string it was sliced from.
//
// Interning is identity-only: the canonical string is byte-equal to the
// input, so replacing a string with its canonical copy can never change
// pipeline output, only allocation counts and retained bytes. That is
// the same invariant the rest of the performance layer relies on
// (pooling changes allocation counts, never output).
//
// Interners are per-pipeline-run objects with no package-level state:
// each Runner (batch entry point or streaming Accumulator) constructs
// its own, so concurrent runs cannot leak canonical instances into one
// another and a run's working set is released when its interner is.
package intern

import (
	"strings"
	"sync"
)

// shardCount spreads the table over independently-locked shards so the
// analysis worker pool doesn't serialize on one mutex. Power of two so
// shard selection is a mask.
const shardCount = 32

// fnv-1a constants; the hash must only be stable within one interner's
// lifetime, so a seeded variant is fine (and keeps shard assignment
// deterministic per run rather than process-global).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

// Interner deduplicates strings into canonical copies. The zero value
// is not usable; construct with New. A nil *Interner is valid and
// interns nothing (Intern returns its argument), so call sites need no
// guards.
type Interner struct {
	seed   uint64
	shards [shardCount]shard
}

// New returns an empty interner whose shard assignment is salted with
// seed. Runs with the same seed place equal strings in the same shards
// — useful only for reproducing contention patterns; results never
// depend on the seed because canonical strings are byte-equal to their
// inputs.
func New(seed int64) *Interner {
	in := &Interner{seed: uint64(seed)}
	for i := range in.shards {
		in.shards[i].m = make(map[string]string)
	}
	return in
}

// Intern returns the canonical copy of s, inserting one if absent. The
// inserted canonical string is a fresh copy (strings.Clone), so
// interning a substring of a large buffer — a host sliced out of a page
// URL, say — releases the buffer instead of pinning it. Safe for
// concurrent use; the fast path is a shared read lock.
func (in *Interner) Intern(s string) string {
	if in == nil || s == "" {
		return s
	}
	sh := &in.shards[in.shardOf(s)]
	sh.mu.RLock()
	c, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c, ok := sh.m[s]; ok {
		return c
	}
	c = strings.Clone(s)
	sh.m[c] = c
	return c
}

// shardOf hashes s with seeded FNV-1a and masks down to a shard index.
func (in *Interner) shardOf(s string) uint64 {
	h := uint64(offset64) ^ in.seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h & (shardCount - 1)
}
