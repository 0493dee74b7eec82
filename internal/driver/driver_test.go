package driver

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rings"
	"cowbird/internal/system"
	"cowbird/internal/telemetry"
)

func newSystem(t *testing.T, cfg system.Config) *system.System {
	t.Helper()
	s, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestClosedLoopDrivesEveryOp runs the driver at 2 threads x window 8
// against a default deployment with an every-request telemetry hub: the hub
// must harvest exactly the ops the loops were asked for (warm-up included),
// each loop must hand every op to Done once, and the loops must never hold
// more than their window in flight.
func TestClosedLoopDrivesEveryOp(t *testing.T) {
	const threads, window, warmup, ops = 2, 8, 24, 60
	hub := telemetry.New(telemetry.Config{SampleEvery: 1})
	cfg := system.DefaultConfig()
	cfg.Threads = threads
	cfg.Telemetry = hub
	sys := newSystem(t, cfg)

	harvested := func() int64 { return hub.ReadsHarvested.Value() + hub.WritesHarvested.Value() }
	var issued, overshoot atomic.Int64
	loops := make([]*Loop, threads)
	var done [threads]int
	for ti := range loops {
		th, err := sys.Client.Thread(ti)
		if err != nil {
			t.Fatal(err)
		}
		wbuf := bytes.Repeat([]byte{byte(0xC0 + ti)}, 64)
		loops[ti] = &Loop{
			Thread: th, Who: "test thread", Window: window, Warmup: warmup, Ops: ops, DestBytes: 64,
			Issue: func(i int, dest []byte) (core.ReqID, error) {
				// issued is read before harvested, and harvested only grows,
				// so this never overstates what the loops hold in flight.
				if n := issued.Load() + 1 - harvested(); n > threads*window {
					overshoot.Store(n)
				}
				off := uint64(ti)<<16 + uint64(i%64)*64
				var id core.ReqID
				var err error
				if i%4 == 3 {
					id, err = th.AsyncWrite(0, wbuf, off)
				} else {
					id, err = th.AsyncRead(0, off, dest)
				}
				if err == nil {
					issued.Add(1)
				}
				return id, err
			},
			Done: func(int, []byte) error { done[ti]++; return nil },
		}
	}
	warm := false
	if err := RunAll(loops, func() { warm = true }); err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("whenWarm never ran")
	}
	if got, want := harvested(), int64(threads*(warmup+ops)); got != want {
		t.Errorf("hub harvested %d ops, want %d", got, want)
	}
	for ti, l := range loops {
		if l.WarmAt.IsZero() || !l.End.After(l.WarmAt) {
			t.Errorf("thread %d: warm %v, end %v", ti, l.WarmAt, l.End)
		}
		if done[ti] != warmup+ops {
			t.Errorf("thread %d: Done ran %d times, want %d", ti, done[ti], warmup+ops)
		}
	}
	if n := overshoot.Load(); n != 0 {
		t.Errorf("%d ops in flight, windows allow %d", n, threads*window)
	}
	if hub.StageExecute.Count() == 0 || hub.EndToEndReads.Count() == 0 {
		t.Error("no stage samples despite SampleEvery=1")
	}

	// A loop value runs again over its buffers (the noisy-neighbor aggressor
	// laps one): the measured ops, and nothing more, run again.
	again := loops[0]
	again.Warmup, done[0] = 0, 0
	if err := again.Run(nil); err != nil || done[0] != ops {
		t.Errorf("second run: %v, Done ran %d times, want %d", err, done[0], ops)
	}
}

// TestStopDrainsInFlight: Stop from Issue ends issuing, and exactly the ops
// already issued complete.
func TestStopDrainsInFlight(t *testing.T) {
	const stopAt = 21
	sys := newSystem(t, system.DefaultConfig())
	th, _ := sys.Client.Thread(0)
	calls, done := 0, 0
	l := &Loop{
		Thread: th, Who: "stop", Window: 8, Ops: 1000, DestBytes: 64,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			if calls++; i == stopAt {
				return 0, Stop
			}
			return th.AsyncRead(0, uint64(i)*64, dest)
		},
		Done: func(i int, _ []byte) error {
			if i >= stopAt {
				return fmt.Errorf("op %d done, issued after Stop", i)
			}
			done++
			return nil
		},
	}
	if err := l.Run(nil); err != nil || calls != stopAt+1 || done != stopAt {
		t.Errorf("got %v, %d calls to Issue, %d ops done; want nil, %d, %d", err, calls, done, stopAt+1, stopAt)
	}
}

// TestAdvisoryErrorsAreEmptyPolls: WaitErr's ErrEngineDead (a lease monitor
// that reads the engine dead for a stretch, then alive again) and
// ErrPoolDegraded each count as an empty poll, and the run completes.
func TestAdvisoryErrorsAreEmptyPolls(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*core.Client, func() bool)
		bad  bool // what the check returns while the stretch lasts
	}{
		{"engine dead", (*core.Client).SetLiveness, false},
		{"pool degraded", (*core.Client).SetPoolHealth, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const stretch, ops = 20, 400
			sys := newSystem(t, system.DefaultConfig())
			var left atomic.Int64 // consultations that still read bad
			left.Store(stretch)
			tc.set(sys.Client, func() bool {
				if left.Add(-1) >= 0 {
					return tc.bad
				}
				return !tc.bad
			})
			th, _ := sys.Client.Thread(0)
			misses := 0
			l := &Loop{
				Thread: th, Who: tc.name, Window: 8, Ops: ops, DestBytes: 64, Stall: 10 * time.Second,
				Issue: func(i int, dest []byte) (core.ReqID, error) {
					return th.AsyncRead(0, uint64(i%64)*64, dest)
				},
				Idle: func(int) { misses++ },
			}
			// Each empty poll consults the check once; keep polling empty
			// until the stretch is spent, so every bad answer reaches the loop.
			for left.Load() > 0 {
				if err := l.Run(nil); err != nil {
					t.Fatal(err)
				}
			}
			if misses < stretch {
				t.Errorf("%d empty polls for %d bad answers", misses, stretch)
			}
		})
	}
}

// TestRingFullStallsAtBound: a loop whose every issue reports a full ring
// fails once nothing has completed for its stall bound, naming its progress
// and wrapping the ring-full error.
func TestRingFullStallsAtBound(t *testing.T) {
	const stall = 50 * time.Millisecond
	sys := newSystem(t, system.DefaultConfig())
	th, _ := sys.Client.Thread(0)
	l := &Loop{
		Thread: th, Who: "full", Window: 4, Ops: 10, Stall: stall,
		Issue: func(int, []byte) (core.ReqID, error) { return 0, rings.ErrMetaFull },
	}
	start := time.Now()
	err := l.Run(nil)
	if took := time.Since(start); took < stall || took > 20*stall {
		t.Errorf("stalled after %v, want about %v", took, stall)
	}
	if err == nil || !strings.Contains(err.Error(), "0 done and 0 issued of 10 ops") || !errors.Is(err, rings.ErrMetaFull) {
		t.Errorf("got %v, want a stall naming 0 done and 0 issued of 10 ops, wrapping the ring-full error", err)
	}
}
