// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock (int64 nanoseconds) through a heap of
// timestamped events. Model code runs as cooperative processes: ordinary
// goroutines that hold a baton handed to them by the scheduler, so exactly
// one process executes at a time and every run of a model is deterministic
// (events at equal timestamps fire in schedule order).
//
// Processes block with Proc.Sleep, or on this package's Queue. Wall-clock
// time never enters the simulation; Go's garbage collector and scheduler
// therefore cannot perturb measured virtual durations, which is the point:
// the performance results in this repository must be noise-free and
// reproducible.
package sim

import (
	"container/heap"
	"fmt"
)

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    int64
	seq    uint64
	events eventHeap

	// parked is the baton returned by a process when it blocks or exits.
	parked chan struct{}
	// live tracks processes that have started and not yet finished.
	live map[*Proc]struct{}
	// dead is set during Shutdown to unwind blocked processes.
	dead    bool
	running bool
}

// NewEngine returns an empty simulation at virtual time zero.
func NewEngine() *Engine {
	return &Engine{
		parked: make(chan struct{}),
		live:   make(map[*Proc]struct{}),
	}
}

// Now reports the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.events) }

// Blocked reports the number of live processes currently waiting on a timer
// or synchronization primitive. After Run returns, a nonzero count means the
// model deadlocked (or deliberately left daemons parked).
func (e *Engine) Blocked() int { return len(e.live) }

type event struct {
	at  int64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func (h eventHeap) peek() event        { return h[0] }
func (e *Engine) popEvent() (ev event) { return heap.Pop(&e.events).(event) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder history.
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d int64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// Run processes events until none remain. It returns the final virtual time.
func (e *Engine) Run() int64 { return e.RunUntil(-1) }

// RunUntil processes events up to and including virtual time deadline
// (deadline < 0 means run to exhaustion) and returns the virtual time of the
// last fired event. Events beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline int64) int64 {
	if e.running {
		panic("sim: nested Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 {
		if deadline >= 0 && e.events.peek().at > deadline {
			break
		}
		ev := e.popEvent()
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// Shutdown unwinds every blocked process (their pending blocking calls never
// return; deferred functions do run) and clears the event queue. Use after
// RunUntil with a deadline so daemon processes do not leak goroutines.
func (e *Engine) Shutdown() {
	e.dead = true
	// Every live process is either parked or awaiting its first resume (no
	// process can hold the baton while Shutdown runs); transferring to it
	// makes it observe e.dead and unwind.
	for p := range e.live {
		e.transfer(p)
	}
	e.events = nil
	e.dead = false
}

// killed is the panic sentinel used by Shutdown to unwind a process.
type killed struct{}

// Proc is a cooperative simulation process. A Proc's methods may only be
// called from within that process's own body function.
type Proc struct {
	e       *Engine
	name    string
	resume  chan struct{}
	blocked bool
}

// Name returns the label given at spawn, for diagnostics.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports current virtual time.
func (p *Proc) Now() int64 { return p.e.now }

// Go spawns fn as a process starting at the current virtual time. The
// process begins executing when the scheduler reaches its start event.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt spawns fn as a process whose first instruction executes at absolute
// virtual time t.
func (e *Engine) GoAt(t int64, name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, name: name, resume: make(chan struct{})}
	e.live[p] = struct{}{}
	go func() {
		defer func() {
			delete(e.live, p)
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					// Propagate model bugs to the test/benchmark: park the
					// scheduler baton first so Run can observe the panic.
					e.parked <- struct{}{}
					panic(r)
				}
			}
			e.parked <- struct{}{}
		}()
		<-p.resume
		if e.dead {
			panic(killed{})
		}
		fn(p)
	}()
	e.At(t, func() { e.transfer(p) })
	return p
}

// transfer hands the baton to p and waits for it to park (block or finish).
func (e *Engine) transfer(p *Proc) {
	p.blocked = false
	p.resume <- struct{}{}
	<-e.parked
}

// park returns the baton to the scheduler and waits to be resumed. It panics
// with the killed sentinel when the engine is shutting down.
func (p *Proc) park() {
	p.blocked = true
	p.e.parked <- struct{}{}
	<-p.resume
	if p.e.dead {
		panic(killed{})
	}
}

// Sleep suspends the process for d virtual nanoseconds. d must be >= 0;
// Sleep(0) yields to other events scheduled at the current instant.
func (p *Proc) Sleep(d int64) {
	p.e.After(d, func() { p.e.transfer(p) })
	p.park()
}
