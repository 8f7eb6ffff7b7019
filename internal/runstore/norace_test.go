//go:build !race

package runstore

const raceEnabled = false
