// Crumblint machine-checks the invariants no test of crumbcruncher can
// see: no order-dependent emission from map iteration, no leaked
// telemetry spans, no raw fsync or rename outside the run store, no
// leaked or mis-pooled resources, no dropped cancellation and no
// shared writes in parallel bodies.
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
