// Fixture for the sharedwrite analyzer: slot stores are the sanctioned
// merge discipline; every other write to captured state inside a
// parallel body is a race that breaks deterministic merging.
package sharedwrite

import (
	"sync"

	"sharedwrite/internal/agg"
	"sharedwrite/internal/intern"
	"sharedwrite/internal/parallel"
)

// Slot stores indexed by the body's index parameter are sanctioned.
func slotOK(items []string) []int {
	out := make([]int, len(items))
	parallel.ForEach(len(items), func(i int) {
		out[i] = len(items[i])
	})
	return out
}

// A captured scalar accumulator races and merges in scheduler order.
func scalarRace(items []string) int {
	total := 0
	parallel.ForEach(len(items), func(i int) {
		total += len(items[i]) // want `write to captured total inside a parallel body`
	})
	return total
}

// A captured map races.
func mapRace(items []string) map[string]int {
	seen := map[string]int{}
	parallel.ForEach(len(items), func(i int) {
		seen[items[i]]++ // want `write to captured seen inside a parallel body`
	})
	return seen
}

// Slice writes that do not go through the body's own index are shared
// writes, not slot stores.
func fixedSlotRace(items []string) []int {
	out := make([]int, 1)
	parallel.ForEach(len(items), func(i int) {
		out[0] += len(items[i]) // want `write to captured out inside a parallel body`
	})
	return out
}

// Cross-package, fact-driven: Add's fact says it mutates its receiver,
// so the helper call is a shared mutation even though the write is in
// another package.
func helperRace(items []string) int {
	var c agg.Counter
	parallel.ForEach(len(items), func(i int) {
		c.Add(len(items[i])) // want `Add mutates captured c inside a parallel body`
	})
	return c.Total()
}

// The interner is concurrency-safe by design: sanctioned.
func internOK(items []string) []string {
	tab := intern.New()
	out := make([]string, len(items))
	parallel.ForEach(len(items), func(i int) {
		out[i] = tab.Intern(items[i])
	})
	return out
}

// Locals declared inside the body are not captured state.
func localOK(items []string) []int {
	out := make([]int, len(items))
	parallel.ForEach(len(items), func(i int) {
		n := 0
		for range items[i] {
			n++
		}
		out[i] = n
	})
	return out
}

// The DESIGN.md §9 mutation row no test catches, as a fixture case:
// tokens.AllCandidatesCtx appending each path's candidates to one
// slice under a mutex — no data race, but merged in scheduler order.
func lockedAppend(items []string) []int {
	var mu sync.Mutex
	var all []int
	parallel.ForEach(len(items), func(i int) {
		mu.Lock()
		all = append(all, len(items[i])) // want `write to captured all inside a parallel body`
		mu.Unlock()
	})
	return all
}
