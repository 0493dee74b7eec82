//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/synctest"
	"time"

	"cowbird/internal/system"
)

type crashResult struct {
	elapsed time.Duration
	err     error
}

// crashBudget is fastNIC's retry budget, 250 µs·(1+2+4): the pool QPs
// declare the crashed primary dead that long after their first unanswered
// send, so no seed detects the crash sooner. Everything else a lossless,
// zero-latency run does costs virtual time only in idle waits, and a second
// budget is the ceiling on them.
const crashBudget = 1750 * time.Microsecond

// crashElapsed is the virtual time of every seed on one P with the collector
// off, where the runs repeat exactly: crashElapsedDefault, except for the
// seeds listed.
const crashElapsedDefault = 2140 * time.Microsecond

var crashElapsed = map[int64]time.Duration{3: 1880 * time.Microsecond, 11: 1880 * time.Microsecond}

// TestPoolCrashOnBubbleClock is TestPoolFailoverProperty's pool crash,
// without its partitions, on a synctest bubble's virtual clock: the primary
// of two replicas dies at a seeded op of a seeded workload, every invariant
// of RunWorkload holds, and the engine reads the pool degraded within
// [crashBudget, 2·crashBudget] of the first op. It runs on one P with the
// collector off between seeds, so runnable goroutines run in run-queue order
// and each seed's virtual time repeats (crashElapsed); the race detector
// randomizes that order, so under it only the bounds are asserted.
func TestPoolCrashOnBubbleClock(t *testing.T) {
	const seeds = 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for seed := int64(0); seed < seeds; seed++ {
		runtime.GC()
		// The result leaves the bubble on a channel made outside it: the race
		// detector sees no edge from the bubble's end to Run's return.
		out := make(chan crashResult, 1)
		synctest.Run(func() {
			elapsed, err := runPoolCrash(seed)
			out <- crashResult{elapsed, err}
		})
		res := <-out
		if res.err != nil {
			t.Fatalf("seed %d: %v", seed, res.err)
		}
		if res.elapsed < crashBudget || res.elapsed > 2*crashBudget {
			t.Errorf("seed %d: %v, want within [%v, %v]", seed, res.elapsed, crashBudget, 2*crashBudget)
		}
		want, ok := crashElapsed[seed]
		if !ok {
			want = crashElapsedDefault
		}
		if !raceEnabled && res.elapsed != want {
			t.Errorf("seed %d: %v, want %v", seed, res.elapsed, want)
		}
	}
}

// runPoolCrash runs one seed inside the calling bubble, from building the
// System to closing it (closed before the bubble ends), and returns the
// virtual time from the first op to the engine reading the pool degraded.
func runPoolCrash(seed int64) (time.Duration, error) {
	cfg := system.DefaultConfig()
	cfg.PoolReplicas = 2
	fastNIC(&cfg)
	s, err := system.New(cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	wl := DefaultWorkloadConfig()
	wl.Ops = 200
	killAt := rand.New(rand.NewSource(seed)).Intn(wl.Ops)
	wl.OnOp = func(i int) {
		if i == killAt {
			s.Pools[0].Crash()
		}
	}
	th, err := s.Client.Thread(0)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := RunWorkload(th, seed, wl); err != nil {
		return 0, fmt.Errorf("killAt=%d: %w", killAt, err)
	}
	for !s.Spot.PoolDegraded() {
		time.Sleep(10 * time.Microsecond)
	}
	return time.Since(start), nil
}
