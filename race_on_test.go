//go:build race

package contextpref_test

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop pooled items at random, so allocation budgets on pooled
// paths read above the production figure.
const raceEnabled = true
