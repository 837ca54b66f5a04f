//go:build race

package netstore

// raceEnabled reports a -race build, whose instrumentation (and
// sync.Pool's randomized dropping under it) changes allocation counts.
const raceEnabled = true
