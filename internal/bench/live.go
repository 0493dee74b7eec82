package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
)

// This file is what the wall-clock sweeps over the live datapath (engine
// scaling, multi-tenant, client cache, chaos recovery, split brain) share
// beyond the closed loop itself, which is internal/driver's: a sweep is a
// deployment config, an op generator (driver.Loop.Issue), an audit and a gate
// (Check); the latency summary, best-of-N, the timer keeper and the report
// writer with its env block live here once.

// timing is the latency of every measured op of one loop, in completion
// order. timed sizes it for the loop's Warmup and Ops as they are at the call
// (a later run may not grow them) and takes over the loop's Issue, to note
// when each op goes out, and its Done.
type timing struct {
	loop  *driver.Loop
	start []time.Time
	lats  []time.Duration
}

func timed(l *driver.Loop) *timing {
	t := &timing{loop: l, start: make([]time.Time, l.Warmup+l.Ops), lats: make([]time.Duration, 0, l.Ops)}
	issue := l.Issue
	l.Issue = func(i int, dest []byte) (core.ReqID, error) {
		if i == 0 {
			t.lats = t.lats[:0] // a new run
		}
		t.start[i] = time.Now()
		return issue(i, dest)
	}
	l.Done = func(i int, _ []byte) error {
		if i >= l.Warmup {
			t.lats = append(t.lats, time.Since(t.start[i]))
		}
		return nil
	}
	return t
}

// liveSummary is the measured window of one or more finished loops.
type liveSummary struct {
	ops       int
	wall      time.Duration // last loop warm → last loop finished
	opsPerSec float64
	p50, p99  float64 // µs
}

func summarize(ts ...*timing) liveSummary {
	var (
		lats              []time.Duration
		lastWarm, lastEnd time.Time
	)
	for _, t := range ts {
		lats = append(lats, t.lats...)
		if t.loop.WarmAt.After(lastWarm) {
			lastWarm = t.loop.WarmAt
		}
		if t.loop.End.After(lastEnd) {
			lastEnd = t.loop.End
		}
	}
	slices.Sort(lats)
	s := liveSummary{ops: len(lats), wall: lastEnd.Sub(lastWarm)}
	s.opsPerSec = float64(s.ops) / s.wall.Seconds()
	s.p50 = float64(percentile(lats, 0.50)) / 1e3
	s.p99 = float64(percentile(lats, 0.99)) / 1e3
	return s
}

// percentile is the nearest-rank q-quantile of an ascending slice; zero when
// the slice is empty.
func percentile[T ~int64 | ~float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// medianMax summarizes a handful of event timings (recovery, detection).
func medianMax(xs []float64) (p50, hi float64) {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return percentile(sorted, 0.50), percentile(sorted, 1)
}

// bestOf runs trial n times and keeps the best result by the sweep's own
// ordering. Short runs on a shared host swing with its mood (a scheduler
// hiccup lands a millisecond outlier in a µs-scale tail, CPU steal moves
// throughput by double-digit percents), noise only ever makes a run worse,
// every point gets the same treatment, and the exhibits are curve shapes
// and ratios, which noise suppression sharpens rather than biases.
func bestOf[T any](n int, trial func(i int) (T, error), better func(a, b T) bool) (T, error) {
	var best T
	for i := 0; i < n; i++ {
		pt, err := trial(i)
		if err != nil {
			var zero T
			return zero, err
		}
		if i == 0 || better(pt, best) {
			best = pt
		}
	}
	return best, nil
}

// maxAdjacentRatio is the largest growth of xs from one rung of a ladder
// to the next (0 for fewer than two rungs). The ladders gate on it: a
// per-request cost that grows with registered state bends the p99 curve
// upward between neighbours.
func maxAdjacentRatio(xs []float64) float64 {
	worst := 0.0
	for i := 1; i < len(xs); i++ {
		worst = max(worst, xs[i]/xs[i-1])
	}
	return worst
}

// keepTimersFine keeps one yielding goroutine runnable until the returned
// stop is called. A P that goes idle with a timer pending blocks in the
// netpoller, whose timeout granularity is 1 ms, so without it the engines'
// µs-scale probe and park timers fire late whenever the driving loops leave
// a P without work: a single window-16 loop on a 2-CPU host measured
// 15–25 k ops/s without the keeper and 130–160 k with it.
func keepTimersFine() (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-quit:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// restockSudogs refills the runtime's sudog caches. A sweep that gates on
// allocations forces a GC as its window opens, and a GC drops the runtime's
// central sudog cache; every goroutine that then blocks on a P whose own
// cache has run dry allocates a sudog until some other P's overflows — a
// handful of mallocs that are the harness's doing, not the datapath's, and
// that a window of a few thousand ops reads as allocs/op > 0. They show once
// blocked goroutines migrate between Ps (engine workers yield after every
// pass, so they do). Parking n goroutines at once and releasing them leaves
// every P's cache full and the central one stocked.
func restockSudogs() {
	const n = 512
	gate := make(chan struct{})
	var parked, exited sync.WaitGroup
	parked.Add(n)
	exited.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer exited.Done()
			parked.Done()
			<-gate
		}()
	}
	parked.Wait()
	runtime.Gosched() // the last few are between Done and the receive
	close(gate)
	exited.Wait()
}

// hostEnv is the environment block every live report embeds: the numbers
// are wall clock, so the host's parallelism is part of the result.
type hostEnv struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func currentEnv() hostEnv {
	return hostEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// report is what a sweep produces: a JSON document that can judge itself.
type report interface {
	// Check applies the sweep's acceptance gate to the measured figures.
	Check() error
}

// sweeps maps `cowbird-bench -sweep` names to the live sweeps. ops is the
// per-thread (per-tenant) op count; maxRung caps a sweep's ladder, 0 for all
// of it, and is ignored by sweeps that have none.
var sweeps = map[string]func(ops, maxRung int) (report, error){
	"scaling": sweepOf(runEngineScalingReport),
	"tenants": sweepOf(runMultiTenantReport),
	"cache":   sweepOf(runClientCacheReport),
	"chaos":   sweepOf(runChaosRecoveryReport),
	"fence":   sweepOf(runSplitBrainReport),
}

func sweepOf[R report](run func(ops, maxRung int) (R, error)) func(ops, maxRung int) (report, error) {
	return func(ops, maxRung int) (report, error) {
		r, err := run(ops, maxRung)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// SweepNames lists the live sweeps in order.
func SweepNames() []string {
	names := make([]string, 0, len(sweeps))
	for name := range sweeps {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// RunSweep runs one live sweep, writes its report to path as indented JSON,
// and then applies the report's own gate — so a failed gate still leaves
// the document behind. The path is probed for writability first: the sweeps
// run for minutes, and learning at the final write that the directory is
// read-only (or the path names a directory) throws all of it away.
func RunSweep(name, path string, ops, maxRung int) error {
	run, ok := sweeps[name]
	if !ok {
		return fmt.Errorf("bench: unknown sweep %q (have %v)", name, SweepNames())
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("bench: report path not writable: %w", err)
	}
	f.Close()
	r, err := run(ops, maxRung)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	return r.Check()
}
