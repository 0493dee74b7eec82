package pace

import (
	"sort"
	"testing"
	"time"
)

// TestStopWakesBlockedWaiter: closing stop ends a block long before its
// timer, and every later Block and Yield reports the stop at once.
func TestStopWakesBlockedWaiter(t *testing.T) {
	stop := make(chan struct{})
	w := New(stop, 0, 0)
	woke := make(chan time.Duration)
	go func() {
		start := time.Now()
		if w.Block(time.Hour) {
			t.Error("Block reported its timer, want stop")
		}
		woke <- time.Since(start)
	}()
	time.Sleep(time.Millisecond) // let it block; a late start only makes the check easier
	closed := time.Now()
	close(stop)
	select {
	case <-woke:
		if d := time.Since(closed); d > 10*time.Millisecond {
			t.Fatalf("blocked waiter woke %v after stop, want within 10ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked waiter never woke on stop")
	}
	if w.Block(time.Hour) || w.Yield() {
		t.Fatal("a stopped waiter kept waiting")
	}
}

// TestBlockAfterUndrainedTick is the swallowed- and stale-wakeup class: a
// tick that fired with nobody receiving it must neither end the next block
// early nor stop it from waking.
func TestBlockAfterUndrainedTick(t *testing.T) {
	w := New(nil, 0, 0)
	w.timer.Reset(time.Microsecond)
	time.Sleep(2 * time.Millisecond) // the tick fires into an unwatched channel
	const d = 5 * time.Millisecond
	for i := 0; i < 3; i++ {
		start := time.Now()
		done := make(chan bool)
		go func() { done <- w.Block(d) }()
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("Block without a stop channel reported stop")
			}
			if took := time.Since(start); took < d {
				t.Fatalf("block %d ended after %v, want at least %v", i, took, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("block %d never woke", i)
		}
	}
	if got := w.Blocks(); got != 3 {
		t.Fatalf("%d blocks counted, want 3", got)
	}
}

// TestIdleLadder: Idle yields hot times, then blocks, and Start restarts
// the budget.
func TestIdleLadder(t *testing.T) {
	w := New(nil, 4, time.Microsecond)
	for round := 0; round < 2; round++ {
		w.Start(0)
		for i := 0; i < 6; i++ {
			if !w.Idle() {
				t.Fatal("Idle without a deadline or stop reported the end of the wait")
			}
		}
	}
	if y, b := w.Yields(), w.Blocks(); y != 8 || b != 4 {
		t.Fatalf("%d yields and %d blocks, want 8 and 4", y, b)
	}
}

// TestIdleNeverBlocksInsideSlack: with the deadline closer than Slack the
// waiter finishes on yields, however long its block length, and reports the
// deadline within a few microseconds of it — a blocked round would overrun
// a sub-millisecond wait by a whole timer tick. The median over trials keeps
// one preempted trial on a loaded host from failing the test.
func TestIdleNeverBlocksInsideSlack(t *testing.T) {
	w := New(nil, 64, time.Second)
	const timeout, trials = 100 * time.Microsecond, 32
	overshoots := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		w.Start(timeout)
		for w.Idle() {
		}
		overshoots = append(overshoots, time.Since(start)-timeout)
	}
	if b := w.Blocks(); b != 0 {
		t.Fatalf("%d blocks with every deadline inside the slack, want 0", b)
	}
	sort.Slice(overshoots, func(i, j int) bool { return overshoots[i] < overshoots[j] })
	if median, limit := overshoots[trials/2], 250*time.Microsecond; median > limit {
		t.Fatalf("median overshoot %v exceeds %v (all: %v)", median, limit, overshoots)
	}
}

// TestRungsAllocFree: after construction no rung allocates — the waiters
// sit on paths with zero-allocation gates of their own.
func TestRungsAllocFree(t *testing.T) {
	w := New(make(chan struct{}), 2, time.Microsecond)
	rungs := map[string]func(){
		"Yield": func() { w.Yield() },
		"Block": func() { w.Block(time.Microsecond) },
		"Idle": func() {
			w.Start(time.Hour)
			for i := 0; i < 3; i++ {
				w.Idle()
			}
		},
		"Idle inside slack": func() {
			w.Start(time.Millisecond)
			for i := 0; i < 3; i++ {
				w.Idle()
			}
		},
	}
	for name, rung := range rungs {
		if allocs := testing.AllocsPerRun(200, rung); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}
