// Package tranco writes Tranco-style top-site lists — the "rank,domain"
// CSV format of the research-oriented ranking the paper draws its 10,000
// seeder domains from (§3.1). The synthetic world publishes its
// popularity ranking in this format (crumbweb -tranco).
package tranco

import (
	"bufio"
	"fmt"
	"io"
)

// Entry is one ranked domain.
type Entry struct {
	Rank   int
	Domain string
}

// List is a ranking, ordered by rank.
type List struct {
	Entries []Entry
}

// FromDomains builds a list from domains already in rank order.
func FromDomains(domains []string) *List {
	l := &List{Entries: make([]Entry, len(domains))}
	for i, d := range domains {
		l.Entries[i] = Entry{Rank: i + 1, Domain: d}
	}
	return l
}

// Write emits the list in Tranco's CSV format: "rank,domain" lines.
func Write(w io.Writer, l *List) error {
	bw := bufio.NewWriter(w)
	for _, e := range l.Entries {
		if _, err := fmt.Fprintf(bw, "%d,%s\n", e.Rank, e.Domain); err != nil {
			return err
		}
	}
	return bw.Flush()
}
