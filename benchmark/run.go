package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cowbird/internal/telemetry"
)

const (
	// warmup is fixed in time, not in operations: caches, ring cursors, the
	// engine's batch controller and the Go heap settle, and set-up stays in
	// the range of seconds where a 10 % bound is measurable.
	warmup = 2 * time.Second
	// setupReps is how many times a run sets the deployment up; setup_s is
	// built from the median. The first set-up is the one the measured phase
	// uses; the others follow the measurement so their garbage cannot touch
	// max_rss_mb.
	setupReps = 3
)

// gatedResult is an untraced run: the only source of end-to-end numbers.
type gatedResult struct {
	metrics   metricSet
	whole     map[string]float64 // whole-run value of each interval-derived metric
	series    series
	p99Us     float64 // ungated tail: quiet level of the per-interval p99
	samples   int64
	intervals int
	setups    []float64 // seconds, each repetition's build + preload
	buildS    float64   // first repetition: constructing the deployment
	preloadS  float64   // first repetition: preload through the datapath
	warmupS   float64
	attempted int64
	failed    int64
	audited   int64
	err       error
}

// setUp builds and preloads the workload's deployment and times it.
func setUp(w *workload, clk clock, seed int64, hub *telemetry.Telemetry) (*deployment, float64, error) {
	t0 := clk.now()
	d, err := w.build(clk, seed, hub)
	return d, float64(clk.now()-t0) / 1e9, err
}

// runGated is one untraced run: set up, warm up, measure for `seconds` in
// intervals, drain, audit, then repeat the set-up for its median.
func runGated(w *workload, seed int64, seconds int, processStart time.Time) gatedResult {
	clk := clock{base: processStart}
	res := gatedResult{metrics: metricSet{}, whole: map[string]float64{}}
	rec := &recorder{}

	d, first, err := setUp(w, clk, seed, nil)
	if err != nil {
		res.err = fmt.Errorf("set-up: %w", err)
		res.attempted, res.failed = 1, 1
		return res
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	res.setups = append(res.setups, first)
	res.buildS, res.preloadS = float64(d.buildNs)/1e9, float64(d.preloadNs)/1e9
	rec.attempted += d.preloadOps

	w0 := clk.now()
	if _, err := runSlice(clk, d.lanes, rec, warmup, false, nil); err != nil {
		res.err = fmt.Errorf("warm-up: %w", err)
		res.attempted, res.failed = rec.attempted, rec.failed+1
		return res
	}
	res.warmupS = float64(clk.now()-w0) / 1e9

	sl, runErr := runSlice(clk, d.lanes, rec, time.Duration(seconds)*time.Second, true, nil)
	rss := maxRSSMB() // before the audit and the extra set-ups allocate
	if runErr == nil {
		runErr = drain(clk, d.lanes, rec)
	}
	if runErr == nil {
		var bad int64
		res.audited, bad, runErr = d.audit()
		rec.attempted += res.audited
		rec.failed += bad
	}
	res.attempted, res.failed = rec.attempted, rec.failed
	if runErr != nil {
		res.err = runErr
		if res.failed == 0 {
			res.failed = 1
		}
		return res
	}
	d.close()
	d = nil

	for r := 1; r < setupReps; r++ {
		runtime.GC()
		extra, secs, serr := setUp(w, clk, seed, nil)
		if serr != nil {
			res.err = fmt.Errorf("set-up repetition %d: %w", r, serr)
			res.failed++
			return res
		}
		extra.close()
		res.setups = append(res.setups, secs)
	}

	res.series = sl.series()
	res.intervals = len(sl.intervals)
	m := res.metrics
	m.set("ops_per_s", quietHigh(res.series.OpsPerS))
	m.set("lat_p50_us", quietLow(res.series.P50Us))
	res.p99Us = quietLow(res.series.P99Us)
	m.set("cpu_us_per_op", quietLow(res.series.CPUUsPerOp))
	m.set("max_rss_mb", rss)
	m.set("setup_s", median(res.setups)+res.warmupS)
	ops, p50, p99, cpu, n := sl.whole()
	res.whole["ops_per_s"], res.whole["lat_p50_us"], res.whole["lat_p99_us"], res.whole["cpu_us_per_op"] = ops, p50, p99, cpu
	res.samples = n
	if n == 0 {
		res.err = fmt.Errorf("no operation completed in the measured phase")
		res.failed++
	}
	for _, def := range endToEnd {
		if v := m[def.Name]; math.IsNaN(v) || v <= 0 {
			res.err = fmt.Errorf("metric %s was not measured", def.Name)
			res.failed++
			break
		}
	}
	return res
}
