//go:build !race

package devices

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it (instrumentation allocates).
const raceEnabled = false
