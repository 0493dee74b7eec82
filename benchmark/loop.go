package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// intervalLen is the grain of the measured phase. Host interference on the
// build sandbox comes in stretches of seconds, so half-second intervals let
// the quiet-quartile estimators tell disturbed stretches from quiet ones
// while each still holds thousands of operations.
const intervalLen = 500 * time.Millisecond

// opTimeout bounds how long a closed-loop operation may stay in flight before
// the run is abandoned: the loop cannot make progress past a lost completion.
const opTimeout = 10 * time.Second

// clock reads monotonic nanoseconds since the process's time base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// lane is one closed-loop caller: an application thread that keeps up to its
// window of operations in flight and waits on its own poll group. All lanes of
// a run are driven by the single harness goroutine.
type lane interface {
	// harvest polls once, without blocking, and verifies what completed.
	harvest(rec *recorder, tr *tracer, root int32) (progressed bool)
	// issue starts operations until the window is full or the program
	// refuses one.
	issue(rec *recorder, tr *tracer, root int32) (progressed bool)
	inflight() int
	// oldest is the issue time of the oldest operation in flight.
	oldest() int64
	// fatal is a non-nil error once the lane can no longer make progress.
	fatal() error
}

// interval is one cut of a measured slice.
type interval struct {
	startNs, endNs int64
	cpuNs          int64 // process user+sys CPU consumed during the interval
	ops            int64 // verified completions
	hist           latHist
}

// recorder accumulates what the lanes report. Counters are cumulative across
// slices; cur is the open interval of the slice being recorded, nil otherwise.
type recorder struct {
	cur *interval

	attempted int64 // operations issued to the program
	failed    int64 // content mismatch, error, or lost completion
	refused   int64 // issue attempts the rings turned away (retried after a harvest)
	polls     int64 // PollGroup.WaitErr / CompletePending calls
	nextOpID  uint32
}

func (r *recorder) complete(latNs int64) {
	if r.cur != nil {
		r.cur.hist.record(latNs)
		r.cur.ops++
	}
}

func (r *recorder) opID() uint32 {
	r.nextOpID++
	return r.nextOpID
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// slice is the outcome of driving the lanes for a fixed time.
type slice struct {
	intervals []interval
	wallNs    int64
	ops       int64 // verified completions inside the kept intervals
}

// runSlice drives the lanes closed-loop for dur, cutting intervals of
// intervalLen when record is set. The wait is the paper's "poll periodically"
// pattern: a non-blocking poll, then a scheduler yield — no timer sleeps in
// the measured path. With a tracer the slice also ends when its buffer fills.
func runSlice(clk clock, lanes []lane, rec *recorder, dur time.Duration, record bool, tr *tracer) (slice, error) {
	start := clk.now()
	deadline := start + int64(dur)
	var out slice
	var ivs []interval
	if record {
		ivs = make([]interval, 0, int(dur/intervalLen)+2)
	}
	openInterval := func(now int64) {
		if !record {
			rec.cur = nil
			return
		}
		ivs = append(ivs, interval{}) // preallocated unless a stall outlasted the estimate
		rec.cur = &ivs[len(ivs)-1]
		rec.cur.startNs = now
		rec.cur.cpuNs = -cpuNanos()
	}
	closeInterval := func(now int64) {
		if rec.cur != nil {
			rec.cur.endNs = now
			rec.cur.cpuNs += cpuNanos()
		}
	}
	openInterval(start)
	nextCut := start + int64(intervalLen)
	root := int32(-1)
	if tr != nil {
		root = tr.begin(spanRun, -1, 0, start)
	}
	now := start
	for {
		progressed := false
		for _, l := range lanes {
			if l.harvest(rec, tr, root) {
				progressed = true
			}
			if l.issue(rec, tr, root) {
				progressed = true
			}
		}
		if !progressed {
			if tr != nil {
				y := tr.begin(spanYield, root, 0, clk.now())
				runtime.Gosched()
				tr.end(y, clk.now())
			} else {
				runtime.Gosched()
			}
		}
		now = clk.now()
		if now < nextCut && now < deadline && (tr == nil || !tr.full()) {
			continue
		}
		for _, l := range lanes {
			if err := l.fatal(); err != nil {
				closeInterval(now)
				return out, err
			}
			if l.inflight() > 0 && now-l.oldest() > int64(opTimeout) {
				closeInterval(now)
				rec.failed += int64(l.inflight())
				return out, fmt.Errorf("operation in flight for more than %v", opTimeout)
			}
		}
		if now >= deadline || (tr != nil && tr.full()) {
			break
		}
		if now >= nextCut {
			closeInterval(now)
			openInterval(now)
			nextCut += int64(intervalLen)
			if nextCut <= now { // a stall skipped whole intervals
				nextCut = now + int64(intervalLen)
			}
		}
	}
	closeInterval(now)
	if tr != nil {
		tr.end(root, now)
	}
	rec.cur = nil
	out.wallNs = now - start
	if record {
		// A trailing sliver shorter than half an interval would be a noisy
		// series point: leave it out.
		if n := len(ivs); n > 1 && ivs[n-1].endNs-ivs[n-1].startNs < int64(intervalLen)/2 {
			ivs = ivs[:n-1]
		}
		out.intervals = ivs
		for i := range ivs {
			out.ops += ivs[i].ops
		}
	}
	return out, nil
}

// drain completes every operation still in flight (verifying it like any
// other) so the final audit sees a quiescent deployment.
func drain(clk clock, lanes []lane, rec *recorder) error {
	start := clk.now()
	for {
		busy := false
		for _, l := range lanes {
			if err := l.fatal(); err != nil {
				return err
			}
			if l.inflight() > 0 {
				busy = true
			}
		}
		if !busy {
			return nil
		}
		if clk.now()-start > int64(opTimeout) {
			for _, l := range lanes {
				rec.failed += int64(l.inflight())
			}
			return errors.New("drain: operations never completed")
		}
		for _, l := range lanes {
			l.harvest(rec, nil, -1)
		}
		runtime.Gosched()
	}
}

// series extracts the per-interval series of a slice.
type series struct {
	OpsPerS    []float64
	P50Us      []float64
	P99Us      []float64
	CPUUsPerOp []float64
}

func (s slice) series() series {
	var out series
	for i := range s.intervals {
		iv := &s.intervals[i]
		secs := float64(iv.endNs-iv.startNs) / 1e9
		ops, p50, p99, cpu := math.NaN(), math.NaN(), math.NaN(), math.NaN()
		if secs > 0 {
			ops = float64(iv.ops) / secs
		}
		if iv.ops > 0 {
			p50 = iv.hist.quantile(0.50) / 1e3
			cpu = float64(iv.cpuNs) / 1e3 / float64(iv.ops)
			// Quote the tail only where at least ten samples lie beyond it.
			if iv.hist.beyond(0.99) >= 10 {
				p99 = iv.hist.quantile(0.99) / 1e3
			}
		}
		out.OpsPerS = append(out.OpsPerS, ops)
		out.P50Us = append(out.P50Us, p50)
		out.P99Us = append(out.P99Us, p99)
		out.CPUUsPerOp = append(out.CPUUsPerOp, cpu)
	}
	return out
}

// whole merges a slice's intervals into its whole-run figures.
func (s slice) whole() (opsPerS, p50Us, p99Us, cpuUsPerOp float64, samples int64) {
	var h latHist
	var cpu int64
	var wall int64
	for i := range s.intervals {
		h.merge(&s.intervals[i].hist)
		cpu += s.intervals[i].cpuNs
		wall += s.intervals[i].endNs - s.intervals[i].startNs
	}
	if h.n == 0 || wall == 0 {
		return math.NaN(), math.NaN(), math.NaN(), math.NaN(), 0
	}
	return float64(s.ops) / (float64(wall) / 1e9), h.quantile(0.5) / 1e3, h.quantile(0.99) / 1e3,
		float64(cpu) / 1e3 / float64(s.ops), h.n
}
