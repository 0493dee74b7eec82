// Package probekit is the few lines every layer probe shares: a batch timer
// that reports the quiet quartile, and the result printer. It depends on the
// standard library only, so no change to the program can break it.
package probekit

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Pin gives the probe the same single P the benchmark's runs have.
func Pin() { runtime.GOMAXPROCS(1) }

// NsPerCall times fn in `batches` batches of `perBatch` calls, after one
// untimed batch, and returns the lower-quartile batch mean in nanoseconds:
// host interference only ever slows a batch, so the quiet level is low in the
// distribution, and a quartile (unlike a minimum) is not set by one lucky
// batch.
func NsPerCall(batches, perBatch int, fn func()) float64 {
	for i := 0; i < perBatch; i++ {
		fn()
	}
	means := make([]float64, batches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0).Nanoseconds()) / float64(perBatch)
	}
	sort.Float64s(means)
	return means[len(means)/4]
}

// Emit prints the probe's metrics as the one JSON object the driver reads.
func Emit(metrics map[string]float64) {
	if err := json.NewEncoder(os.Stdout).Encode(metrics); err != nil {
		Fail(err)
	}
}

// Fail reports why a probe could not measure and exits non-zero; the driver
// then lists the probe's metrics as missing.
func Fail(err error) {
	fmt.Fprintln(os.Stderr, "probe:", err)
	os.Exit(1)
}

// Await yields the P until done reports true — the wait every probe of an
// asynchronous layer needs — and fails the probe after five seconds. The
// clock is read once per 256 yields so the wait itself stays cheap.
func Await(what string, done func() bool) {
	var deadline time.Time
	for spin := 0; !done(); spin++ {
		runtime.Gosched()
		if spin%256 == 255 {
			if deadline.IsZero() {
				deadline = time.Now().Add(5 * time.Second)
			} else if time.Now().After(deadline) {
				Fail(fmt.Errorf("%s never completed", what))
			}
		}
	}
}
