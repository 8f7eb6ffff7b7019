//go:build race

package browser

const raceEnabled = true
