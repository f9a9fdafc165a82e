//go:build !race

package contextpref_test

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
