package web

import (
	"strings"

	"crumbcruncher/internal/stats"
	"crumbcruncher/internal/words"
)

// nameForge coins unique domain and organisation names from the shared
// vocabulary.
type nameForge struct {
	rng  *stats.RNG
	used map[string]bool
}

func newNameForge(rng *stats.RNG) *nameForge {
	return &nameForge{rng: rng, used: make(map[string]bool)}
}

// unique retries gen until it produces an unused name.
func (f *nameForge) unique(gen func() string) string {
	for i := 0; ; i++ {
		n := gen()
		if !f.used[n] {
			f.used[n] = true
			return n
		}
		if i > 200 {
			// Exhausted the nice combinations: suffix a counter.
			n = n + string(rune('a'+f.rng.Intn(26))) + string(rune('a'+f.rng.Intn(26)))
			if !f.used[n] {
				f.used[n] = true
				return n
			}
		}
	}
}

var siteTLDs = []string{".com", ".com", ".com", ".net", ".org", ".co", ".io", ".ru", ".de"}
var trackerTLDs = []string{".com", ".net", ".net", ".io", ".link", ".world"}

// trackerDomain coins an ad-tech domain like "clickmetrix.net".
func (f *nameForge) trackerDomain() string {
	return f.unique(func() string {
		a := stats.Pick(f.rng, words.Brandish)
		b := stats.Pick(f.rng, words.Brandish)
		if a == b {
			b = stats.Pick(f.rng, words.Common)
		}
		return a + b + stats.Pick(f.rng, trackerTLDs)
	})
}

// orgName coins an organisation name like "Brightvalley Media".
func (f *nameForge) orgName() string {
	suffixes := []string{"Media", "Group", "Inc", "Networks", "Digital", "Labs", "Holdings"}
	return f.unique(func() string {
		w := stats.Pick(f.rng, words.Common)
		return titleCase(w) + " " + stats.Pick(f.rng, suffixes)
	})
}

// paramName coins a UID query-parameter name like "zumclid".
func (f *nameForge) paramName() string {
	suffixes := []string{"clid", "uid", "id", "cid", "ref_id", "visitor"}
	return f.unique(func() string {
		return stats.Pick(f.rng, words.Brandish) + stats.Pick(f.rng, suffixes)
	})
}

// slug builds an underscore-joined natural-language slug, one of the
// benign token classes the paper had to remove by hand.
func slugFrom(rng *stats.RNG, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = stats.Pick(rng, words.Common)
	}
	return strings.Join(parts, "_")
}

// concatWords builds a delimiter-free word concatenation
// ("sweetmagnolias" class).
func concatWords(rng *stats.RNG, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(stats.Pick(rng, words.Common))
	}
	return b.String()
}

// titleCase upper-cases the first ASCII letter of w.
func titleCase(w string) string {
	if w == "" {
		return w
	}
	if w[0] >= 'a' && w[0] <= 'z' {
		return string(w[0]-'a'+'A') + w[1:]
	}
	return w
}
