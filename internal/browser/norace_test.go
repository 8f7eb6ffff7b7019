//go:build !race

package browser

const raceEnabled = false
