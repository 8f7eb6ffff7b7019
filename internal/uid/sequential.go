package uid

import (
	"sort"
	"time"

	"crumbcruncher/internal/tokens"
)

// SequentialStats accounts for the sequential baseline's token fates.
type SequentialStats struct {
	Candidates      int
	Groups          int
	SingleUser      int // unconfirmable: only one user ever observed the token
	SameAcrossUsers int
	SessionByTTL    int
	Programmatic    int
	ManuallyRemoved int
	Final           int
}

// SequentialIdentify implements prior work's sequential-user UID
// identification (Koop et al. and the single-crawler studies of §8.1):
// tokens are grouped by (originator site, parameter name) across users'
// independent visits — there are no synchronized steps to align on — and
// a token is kept only when at least two users observed it with entirely
// different values. Session IDs are removed with a cookie-lifetime
// threshold (the prior-work method), since there is no repeat crawler.
//
// The structural disadvantage the paper calls out appears as
// SequentialStats.SingleUser: with no synchronization, nothing guarantees
// a website (let alone an ad) is observed by more than one user, and all
// such tokens must be discarded.
func SequentialIdentify(cands []*tokens.Candidate, lifetimeOf func(string) (time.Duration, bool), threshold time.Duration) ([]*Case, SequentialStats) {
	stats := SequentialStats{Candidates: len(cands)}

	type groupKey struct {
		origin string
		name   string
	}
	groups := map[groupKey]map[string][]*tokens.Candidate{} // → profile → observations
	var order []groupKey
	for _, c := range cands {
		k := groupKey{origin: c.Path.Originator().Domain, name: c.Name}
		if groups[k] == nil {
			groups[k] = map[string][]*tokens.Candidate{}
			order = append(order, k)
		}
		groups[k][c.Profile] = append(groups[k][c.Profile], c)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].origin != order[j].origin {
			return order[i].origin < order[j].origin
		}
		return order[i].name < order[j].name
	})
	stats.Groups = len(order)

	var cases []*Case
	for _, k := range order {
		byProfile := groups[k]
		if len(byProfile) < 2 {
			stats.SingleUser++
			continue
		}
		// Any value shared by two users disqualifies the token.
		valueUsers := map[string]int{}
		for _, obs := range byProfile {
			seen := map[string]bool{}
			for _, c := range obs {
				if !seen[c.Value] {
					seen[c.Value] = true
					valueUsers[c.Value]++
				}
			}
		}
		shared := false
		for _, n := range valueUsers {
			if n > 1 {
				shared = true
				break
			}
		}
		if shared {
			stats.SameAcrossUsers++
			continue
		}
		rep := firstObservation(byProfile)
		if threshold > 0 && lifetimeOf != nil {
			if lt, ok := lifetimeOf(rep.Value); ok && lt < threshold {
				stats.SessionByTTL++
				continue
			}
		}
		if tokens.ProgrammaticFilter(rep.Value) != tokens.KeepToken {
			stats.Programmatic++
			continue
		}
		if tokens.ManualReview(rep.Value) {
			stats.ManuallyRemoved++
			continue
		}
		// Wrap in a Case for downstream tooling; the group coordinates
		// are synthetic (sequential data has no shared walk/step).
		g := &Group{Walk: -1, Step: -1, Name: k.origin + "|" + k.name,
			Observations: map[string][]*tokens.Candidate{}}
		c := &Case{Group: g, Bucket: BucketDifferentOnly, Values: map[string]string{}}
		profiles := make([]string, 0, len(byProfile))
		for p := range byProfile {
			profiles = append(profiles, p)
		}
		sort.Strings(profiles)
		for _, p := range profiles {
			g.Observations[p] = byProfile[p]
			c.Values[p] = byProfile[p][0].Value
			c.Candidates = append(c.Candidates, byProfile[p]...)
		}
		cases = append(cases, c)
	}
	stats.Final = len(cases)
	return cases, stats
}

func firstObservation(byProfile map[string][]*tokens.Candidate) *tokens.Candidate {
	profiles := make([]string, 0, len(byProfile))
	for p := range byProfile {
		profiles = append(profiles, p)
	}
	sort.Strings(profiles)
	return byProfile[profiles[0]][0]
}
