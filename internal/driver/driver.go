// Package driver is the one closed loop that keeps a window of operations in
// flight on a client thread, under the live sweeps of internal/bench, the
// chaos workload and the bubble-clock exhibits. One pass issues until the
// window is full (a ring-full error ends issuing for the pass), polls once
// with PollGroup.WaitErr(n, 0), hands each completion to Done and, if
// nothing completed, calls Idle. If nothing completes for Stall, the run
// fails.
//
// The loop also runs inside a testing/synctest bubble, whose virtual clock
// advances only when every goroutine of the bubble is durably blocked. A
// bubbled loop has three pitfalls; the loop handles the first two:
//
//  1. Never poll with a timeout. A WaitErr with a timeout yields instead of
//     blocking within pace.Slack of its deadline, and a goroutine that only
//     yields stops the clock for good. The caller's Idle must block
//     (time.Sleep) for the clock to move.
//  2. ErrEngineDead and ErrPoolDegraded count as an empty poll. WaitErr
//     returns them at once for as long as the condition holds (a lease
//     monitor's ErrEngineDead until its next sample): stopping on them fails
//     a run the deployment recovers from, and retrying at once spins.
//  3. Build the deployment inside the bubble and close it there: t.Cleanup
//     runs after the bubble has ended.
package driver

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rings"
)

// Stop, returned by Issue, ends issuing: the ops in flight complete and Run
// returns.
var Stop = errors.New("driver: stop issuing")

// DefaultStall is the stall bound of a Loop that sets none.
const DefaultStall = 120 * time.Second

// Loop drives Warmup+Ops operations through one client thread. Its slot
// table, read destinations and poll group are allocated before the first op
// and never grow, so an allocs/op figure taken across a run counts the system
// and not the loop. Warm-up flows straight into the measured ops: a pause
// long enough for the engine worker to park would put one ProbeInterval into
// the latency tail.
type Loop struct {
	Thread *core.Thread
	Who    string // names the loop in its errors
	Window int    // in-flight bound of the measured ops
	// WarmWindow, when larger than Window, bounds the warm-up prefix. A sweep
	// that gates on allocations warms at twice the measured window, so every
	// high-water mark (frame pool, delay line, rings) is set before
	// measuring, where a new one would show as an allocation.
	WarmWindow int
	Warmup     int // ops issued ahead of the measured ones
	Ops        int // measured ops
	DestBytes  int // size of each slot's read destination
	// Stall fails the run when nothing completes for this long (0:
	// DefaultStall).
	Stall time.Duration

	// Issue starts op i (0-based, warm-up included), reading into dest if it
	// is a read. A ring-full error ends issuing for this pass, and the loop
	// calls Issue(i) again on a later one; Stop ends issuing for good; any
	// other error ends the run.
	Issue func(i int, dest []byte) (core.ReqID, error)
	// Done, if set, verifies op i once it has completed; an error ends the
	// run. dest is the slot's read destination, valid until Done returns.
	Done func(i int, dest []byte) error
	// Idle waits after an empty poll; misses counts the empty polls in a row,
	// this one included. Nil yields the processor.
	Idle func(misses int)

	// Results of the last run.
	WarmAt time.Time // the warm-up prefix had completed
	End    time.Time

	slots []slot
	group *core.PollGroup
}

// slot tracks one in-flight op.
type slot struct {
	id   core.ReqID
	op   int
	busy bool
	dest []byte
}

// Run executes the loop. onWarm, if non-nil, fires exactly once, when the
// warm-up prefix has completed (at entry when there is none). A loop whose
// run succeeded can be run again; it reuses its buffers.
func (l *Loop) Run(onWarm func()) error {
	if depth := max(l.Window, l.WarmWindow); len(l.slots) != depth {
		l.slots = make([]slot, depth)
		for i := range l.slots {
			l.slots[i].dest = make([]byte, l.DestBytes)
		}
	}
	if l.group == nil {
		l.group = l.Thread.PollCreate()
	}
	l.WarmAt = time.Time{}
	stall := l.Stall
	if stall <= 0 {
		stall = DefaultStall
	}

	total := l.Warmup + l.Ops
	issued, done, misses := 0, 0, 0
	stopped := false
	var idleSince time.Time
	var lastErr error // the last ring-full or empty-poll error, for a stall
	for {
		if l.WarmAt.IsZero() && done >= l.Warmup {
			l.WarmAt = time.Now()
			if onWarm != nil {
				onWarm()
			}
		}
		if done == issued && (stopped || issued == total) {
			break
		}
		limit := l.Window
		if issued < l.Warmup && l.WarmWindow > limit {
			limit = l.WarmWindow
		}
		for si := range l.slots {
			if stopped || issued == total || issued-done >= limit {
				break
			}
			s := &l.slots[si]
			if s.busy {
				continue
			}
			id, err := l.Issue(issued, s.dest)
			if errors.Is(err, Stop) {
				stopped = true
				break
			}
			if err != nil {
				if !ringFull(err) {
					return fmt.Errorf("%s: issue op %d: %w", l.Who, issued, err)
				}
				lastErr = err
				break
			}
			if err := l.group.Add(id); err != nil {
				return fmt.Errorf("%s: %w", l.Who, err)
			}
			s.id, s.op, s.busy = id, issued, true
			issued++
		}
		ids, err := l.group.WaitErr(len(l.slots), 0)
		if err != nil {
			if !errors.Is(err, core.ErrEngineDead) && !errors.Is(err, core.ErrPoolDegraded) {
				return fmt.Errorf("%s: wait at %d/%d ops: %w", l.Who, done, total, err)
			}
			lastErr = err
		}
		for _, id := range ids {
			s := l.inFlight(id)
			if s == nil {
				return fmt.Errorf("%s: completion for %v, which is not in flight", l.Who, id)
			}
			if l.Done != nil {
				if err := l.Done(s.op, s.dest); err != nil {
					return err
				}
			}
			s.busy = false
			done++
		}
		if len(ids) > 0 {
			misses = 0
			continue
		}
		if now := time.Now(); misses == 0 {
			idleSince = now
		} else if now.Sub(idleSince) > stall {
			err := fmt.Errorf("%s stalled: no completion for %v, %d done and %d issued of %d ops", l.Who, stall, done, issued, total)
			if lastErr != nil {
				err = fmt.Errorf("%w (last error: %w)", err, lastErr)
			}
			return err
		}
		misses++
		if l.Idle != nil {
			l.Idle(misses)
		} else {
			runtime.Gosched()
		}
	}
	l.End = time.Now()
	return nil
}

// inFlight returns the busy slot holding id, or nil.
func (l *Loop) inFlight(id core.ReqID) *slot {
	for i := range l.slots {
		if s := &l.slots[i]; s.busy && s.id == id {
			return s
		}
	}
	return nil
}

func ringFull(err error) bool {
	return errors.Is(err, rings.ErrMetaFull) ||
		errors.Is(err, rings.ErrReqDataFull) ||
		errors.Is(err, rings.ErrRespDataFull)
}

// RunAll runs every loop on its own goroutine and returns when all have
// finished. whenWarm, if non-nil, runs on the caller's goroutine once every
// loop is past its warm-up prefix (traffic keeps flowing through it, so no
// engine worker goes idle around the call), and nothing here allocates
// between that call and the return, so a caller can bracket the measured
// window with runtime.ReadMemStats.
func RunAll(loops []*Loop, whenWarm func()) error {
	errs := make([]error, len(loops))
	var warmWG, runWG sync.WaitGroup
	warmWG.Add(len(loops))
	runWG.Add(len(loops))
	for i, l := range loops {
		go func() {
			defer runWG.Done()
			warmed := false
			errs[i] = l.Run(func() { warmed = true; warmWG.Done() })
			if !warmed {
				warmWG.Done()
			}
		}()
	}
	warmWG.Wait()
	if whenWarm != nil {
		whenWarm()
	}
	runWG.Wait()
	return errors.Join(errs...)
}
