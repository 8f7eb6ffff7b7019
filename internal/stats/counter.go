package stats

import "sort"

// Counter tallies string keys and reports them in rank order. It is the
// workhorse behind every "top N" table and figure in the paper.
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int)} }

// Inc increments key by one.
func (c *Counter) Inc(key string) { c.counts[key]++ }

// Entry is a key with its tally.
type Entry struct {
	Key   string
	Count int
}

// Top returns the n highest-count entries, ties broken by key so output is
// deterministic. n <= 0 returns all entries.
func (c *Counter) Top(n int) []Entry {
	entries := make([]Entry, 0, len(c.counts))
	for k, v := range c.counts {
		entries = append(entries, Entry{Key: k, Count: v})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if n > 0 && n < len(entries) {
		entries = entries[:n]
	}
	return entries
}
