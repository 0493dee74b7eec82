//go:build race

package chaos

// raceEnabled reports whether the race detector is compiled in; the bubble
// twin asserts exact virtual times only without it (it randomizes run-queue
// order).
const raceEnabled = true
