//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package p4

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// bubbleTB runs a test helper's cleanups inside the synctest bubble that
// built its deployment: a bubble may end only once every goroutine it started
// has, and testing.T runs cleanups after the test function returns, outside
// it. The bubble's goroutine is not the test's, where Fatal may not run, so
// a helper's Fatal panics instead.
type bubbleTB struct {
	testing.TB
	cleanups []func()
}

func (b *bubbleTB) Cleanup(f func()) { b.cleanups = append(b.cleanups, f) }

func (b *bubbleTB) Fatal(args ...any) { panic(fmt.Sprint(args...)) }

func (b *bubbleTB) Fatalf(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

func (b *bubbleTB) close() {
	for i := len(b.cleanups) - 1; i >= 0; i-- {
		b.cleanups[i]()
	}
}

// detectWatch records when a row's frame was lost and when the instance
// began its drain and its resync, with the longest timeout and drain of the
// instance's queues at the loss. Every field is written under the fabric's
// forwarding lock, and read once the deployment is closed; resynced may be
// read at any time.
type detectWatch struct {
	lostAt, drainAt, resyncAt time.Time
	timeout, drain            time.Duration
	resynced                  atomic.Bool
	// peerReads counts queue 1's reads; peerLost and peerDrain are its
	// count at the loss and at the drain.
	peerReads           *atomic.Int64
	peerLost, peerDrain int64
}

// watchedEngine is a lossyEngine that also records the instance's state
// after every frame it processes.
type watchedEngine struct {
	lossyEngine
	w *detectWatch
}

func (e watchedEngine) Process(frame []byte) [][]byte {
	out := e.lossyEngine.Process(frame)
	in := e.Engine.tbl.Load().instances[0]
	switch {
	case e.w.lostAt.IsZero():
	case in.state == stateDraining && e.w.drainAt.IsZero():
		e.w.drainAt = time.Now()
		e.w.peerDrain = e.w.peerReads.Load()
	case in.state == stateResyncing && e.w.resyncAt.IsZero():
		e.w.resyncAt = time.Now()
		e.w.resynced.Store(true)
	}
	return out
}

// TestStuckOpDetectedWithinTimeout runs each row of
// TestStuckOpRecoversWithinBound in a synctest bubble, where every host answers at once and time moves only
// when the deployment waits, so a queue's timeout is what its probes
// measured. The drain must begin within 1.5 × the instance's longest queue
// timeout at the loss (DESIGN.md §16: a loss is found about one timeout
// after it), and the resync one drain window after that, plus a tick. Run it
// with
//
//	GOEXPERIMENT=synctest go test -run TestStuckOpDetectedWithinTimeout -v ./internal/engine/p4/
func TestStuckOpDetectedWithinTimeout(t *testing.T) {
	for _, row := range stuckRows {
		t.Run(row.name, func(t *testing.T) {
			var w detectWatch
			errs := make(chan error, 1)
			synctest.Run(func() { errs <- detectRow(t, row.lose, row.write, row.idle, row.peer, &w) })
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			detect, resync := w.drainAt.Sub(w.lostAt), w.resyncAt.Sub(w.drainAt)
			t.Logf("timeout %v, drain %v: drain began %v after the loss, resync %v after that", w.timeout, w.drain, detect, resync)
			if w.timeout < rdma.DefaultRTOFloor || w.timeout > rdma.MaxRTO {
				t.Fatalf("timeout %v outside [%v, %v]", w.timeout, rdma.DefaultRTOFloor, rdma.MaxRTO)
			}
			if detect > w.timeout*3/2 {
				t.Errorf("drain began %v after the loss, want within 1.5 x %v", detect, w.timeout)
			}
			if resync > w.drain+cfg.ProbeInterval {
				t.Errorf("resync began %v after the drain, want within %v + %v", resync, w.drain, cfg.ProbeInterval)
			}
			// Queue 1's completions must not hide queue 0's stuck read, as
			// one stamp per instance would: they happen, and the drain
			// still begins on time.
			if row.peer && w.peerDrain == w.peerLost {
				t.Error("queue 1 completed no read between the loss and the drain: the row tests nothing")
			}
		})
	}
}

// detectRow is one row of TestStuckOpDetectedWithinTimeout inside its
// bubble: it loses the row's frame, runs the stuck operation to completion
// and closes the deployment.
func detectRow(t testing.TB, lose func(*instanceEnv) func(*wire.Packet) bool, write, idle, peer bool, w *detectWatch) error {
	tb := &bubbleTB{TB: t}
	defer tb.close()
	threads := 1
	if peer {
		threads = 2
	}
	eng, envs := newMultiInstanceCfg(tb, 1, threads, testConfig())
	env := envs[0]
	th, _ := env.client.Thread(0)
	if err := th.WriteSync(0, stuckOld, 4096, 10*time.Second); err != nil {
		return err
	}
	w.peerReads = new(atomic.Int64)
	if peer {
		w.peerReads = startPeerLoop(tb, env)
	}
	match := lose(env)
	var p wire.Packet
	drop := func(frame []byte) bool {
		if !w.lostAt.IsZero() || p.DecodeFromBytes(frame) != nil || !match(&p) {
			return false
		}
		in := eng.tbl.Load().instances[0]
		for _, q := range in.queues {
			w.timeout = max(w.timeout, q.timeout())
			w.drain = max(w.drain, q.rto.Base(rdma.DefaultRTOFloor))
		}
		w.lostAt = time.Now()
		w.peerLost = w.peerReads.Load()
		return true
	}
	eng.fabric.SetInterposer(watchedEngine{lossyEngine{eng, drop}, w})
	eng.fabric.SetLossFn(drop)

	for idle && eng.Stats().Recoveries == 0 {
		time.Sleep(time.Microsecond) // the idle queue's own probe is lost
	}
	if err := stuckOp(th, write); err != nil {
		return err
	}
	for !w.resynced.Load() {
		time.Sleep(time.Microsecond)
	}
	if n := eng.Stats().Recoveries; n != 1 || eng.Stats().NAKs != 0 {
		return fmt.Errorf("%d recoveries, %d NAKs: want one recovery, from the timeout", n, eng.Stats().NAKs)
	}
	return nil
}
