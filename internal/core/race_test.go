//go:build race

package core

// raceEnabled reports that the race detector is on: timing tests skip.
const raceEnabled = true
