// Package category implements the IAB-style content taxonomy lookup the
// paper uses via Webshrinker to categorise originators and destinations
// (§5.2.1, Figure 5).
package category

// Unknown is the category for domains the taxonomy does not cover (the
// paper had 32 of 339 domains categorised as unknown).
const Unknown = "Unknown"

// Taxonomy maps registered domains to content categories.
type Taxonomy struct {
	byDomain map[string]string
}

// New builds a taxonomy from a domain → category map.
func New(m map[string]string) *Taxonomy {
	t := &Taxonomy{byDomain: make(map[string]string, len(m))}
	for d, c := range m {
		t.byDomain[d] = c
	}
	return t
}

// CategoryOf returns the category of domain, or Unknown.
func (t *Taxonomy) CategoryOf(domain string) string {
	if c, ok := t.byDomain[domain]; ok && c != "" {
		return c
	}
	return Unknown
}

// CountByCategory tallies the number of distinct domains per category
// (each registered domain counted once, as in Figure 5).
func (t *Taxonomy) CountByCategory(domains []string) map[string]int {
	seen := map[string]bool{}
	out := map[string]int{}
	for _, d := range domains {
		if seen[d] {
			continue
		}
		seen[d] = true
		out[t.CategoryOf(d)]++
	}
	return out
}
