// Crumblint machine-checks the invariants crumbcruncher's determinism
// guarantee rests on: no wall-clock reads outside annotated sites, no
// unseeded randomness, no order-dependent emission from map iteration,
// no leaked telemetry spans, and no leaked or mis-pooled resources.
//
// Run it over the tree (test files included):
//
//	go run ./cmd/crumblint ./...
//
// A finding can be waived, visibly, with a //crumb:allow directive; see
// internal/lint/directive and DESIGN.md §9.
package main

import (
	"crumbcruncher/internal/lint"
	"crumbcruncher/internal/lint/driver"
)

func main() {
	driver.Main(lint.All()...)
}
