//go:build race

package system

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it (instrumentation allocates).
const raceEnabled = true
