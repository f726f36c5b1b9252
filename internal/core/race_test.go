//go:build race

package core

// raceEnabled reports that the race detector is on: timing tests and
// the membership-cycle allocation bound skip.
const raceEnabled = true
