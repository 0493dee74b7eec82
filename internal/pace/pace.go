// Package pace is the datapath's one idle-wait ladder. After an empty poll a
// Waiter either yields the processor (its hot rung: on a P with nothing else
// runnable, runtime.Gosched returns in about a hundred nanoseconds) or blocks
// in a select on its one timer and its stop channel (its cold rung), so a
// blocked poller never spins.
package pace

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Slack is what a short block may really cost, the kernel rounding it up to
// a timer tick (observed ~1 ms): Idle never blocks closer to its deadline.
const Slack = 2 * time.Millisecond

// clockEvery is how many hot rounds pass between deadline reads: a clock read
// per yield is a measurable share of a busy wait, while a block is long
// enough that cold rounds read it every time.
const clockEvery = 16

// A Waiter is one goroutine's idle ladder; only Yields and Blocks may be
// called from others. Its timer is made at construction, so no rung
// allocates, and only its owner touches it: a timer that another goroutine
// may Reset or drain can swallow the wakeup its owner is blocked on.
type Waiter struct {
	timer          *time.Timer
	stop           <-chan struct{}
	hot            int           // Idle's yields before it blocks
	block          time.Duration // Idle's block length
	misses         int           // Idle calls since Start
	deadline       time.Time     // zero: none
	yields, blocks atomic.Int64
}

// New returns a waiter whose waits end when stop closes (nil: never). Idle
// yields hot times after each Start, then blocks block at a time; callers
// that choose the rung themselves, with Yield and Block, pass zeros.
func New(stop <-chan struct{}, hot int, block time.Duration) *Waiter {
	w := &Waiter{timer: time.NewTimer(time.Hour), stop: stop, hot: hot, block: block}
	w.timer.Stop()
	return w
}

// Yield hands the processor over once and reports whether stop is open.
func (w *Waiter) Yield() bool {
	w.yields.Add(1)
	runtime.Gosched()
	select {
	case <-w.stop:
		return false
	default:
		return true
	}
}

// Block waits d, or until stop closes, which it reports by returning false.
func (w *Waiter) Block(d time.Duration) bool {
	w.blocks.Add(1)
	if !w.timer.Stop() {
		// A tick left over from a block that ended on stop: drain it, or it
		// would end this block at once.
		select {
		case <-w.timer.C:
		default:
		}
	}
	w.timer.Reset(d)
	select {
	case <-w.timer.C:
		return true
	case <-w.stop:
		w.timer.Stop()
		return false
	}
}

// Start begins a wait that Idle paces, with a deadline timeout from now
// (<= 0: none).
func (w *Waiter) Start(timeout time.Duration) {
	w.misses, w.deadline = 0, time.Time{}
	if timeout > 0 {
		w.deadline = time.Now().Add(timeout)
	}
}

// Idle waits once after an empty poll: a yield for the first hot calls
// since Start, then a block, or a yield within Slack of the deadline. It
// reports false, without waiting, once the deadline has passed or stop has
// closed.
func (w *Waiter) Idle() bool {
	n := w.misses
	w.misses++
	timed := !w.deadline.IsZero()
	if n < w.hot {
		if timed && n%clockEvery == clockEvery-1 && time.Now().After(w.deadline) {
			return false
		}
		return w.Yield()
	}
	if timed {
		if left := time.Until(w.deadline); left < 0 {
			return false
		} else if left < Slack {
			return w.Yield()
		}
	}
	return w.Block(w.block)
}

// Yields reports how many times the waiter has yielded.
func (w *Waiter) Yields() int64 { return w.yields.Load() }

// Blocks reports how many times the waiter has blocked.
func (w *Waiter) Blocks() int64 { return w.blocks.Load() }
