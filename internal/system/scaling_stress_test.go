package system

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/cluster"
	"cowbird/internal/core"
	"cowbird/internal/rings"
	"cowbird/internal/telemetry"
)

// TestScalingStressManyQueueSets is the -race workout for the bounded-state
// claim: 512 registered queue sets with only 8 active, deterministic frame
// loss, and control-plane churn — a new instance registered and another
// adopted mid-traffic — while two observer goroutines hammer Stats() and the
// telemetry registry. The registered-but-idle majority exercises exactly the
// state the control/data split bounds (snapshot size, parked workers,
// per-queue soft state); the assertions are exactly-once completion
// accounting across every instance and zero data corruption. Run with
// -race: snapshot publication, the adoption barrier, loss recovery, and the
// scrape paths must share no unsynchronized state even while the instance
// set itself is changing under load.
//
// The idle pacing is deliberately slow (4 s probes, 16 s heartbeats) and
// the workloads are async batches: 512 parked workers still cost one timer
// wakeup each per interval, and on the small race-instrumented CI hosts the
// test would otherwise spend its budget on idle probe traffic instead of on
// the interleavings it exists to explore.
func TestScalingStressManyQueueSets(t *testing.T) {
	const (
		totalQueueSets = 512
		activeThreads  = 8
		opsPerThread   = 60
		sideOps        = 15 // write/read pairs on each side instance
	)
	if testing.Short() {
		t.Skip("512-queue-set wiring is not short-mode material")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	compact := rings.Layout{MetaEntries: 64, ReqDataBytes: 16 << 10, RespDataBytes: 16 << 10}
	tel := telemetry.New(telemetry.Config{SampleEvery: 64})
	s := startSystem(t, func(c *Config) {
		c.Threads = totalQueueSets
		c.Layout = compact
		c.Telemetry = tel
		// 4 s probes: under race each parked worker's wakeup is a fully
		// instrumented fabric round trip, and when this test runs late in
		// the suite (big heap, instrumented GC) 512 wakeups/s of those is
		// enough background load to stretch the active batches past their
		// deadlines. Worker discovery of the side instances pays at most
		// one interval.
		c.Spot.ProbeInterval = 4 * time.Second
		c.Spot.HeartbeatInterval = 16 * time.Second
		c.Spot.StagingBytes = 32 << 10
	})

	// Deterministic loss: every 67th frame disappears. Go-Back-N recovers;
	// the op stream must not notice beyond latency.
	var frames atomic.Uint64
	s.Fabric.SetLossFn(func([]byte) bool { return frames.Add(1)%67 == 0 })

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(2)
	go func() { // Stats scrape: snapshot loads racing snapshot publication
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Spot.Stats()
				_ = s.Spot.PoolDegraded()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	go func() { // telemetry scrape: the /metrics path
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tel.Reg.Snapshot()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	// batchPairs drives n write/read pairs as two async batches — writes,
	// barrier, reads — so one worker-discovery gap amortizes over the whole
	// batch instead of gating every op.
	batchPairs := func(th *core.Thread, regionID uint16, n int, seed byte, base uint64) error {
		data := bytes.Repeat([]byte{seed}, 128)
		ids := make([]core.ReqID, 0, n)
		for k := 0; k < n; k++ {
			id, err := th.AsyncWrite(regionID, data, base+uint64(k)*256)
			if err != nil {
				return fmt.Errorf("write %d: %w", k, err)
			}
			ids = append(ids, id)
		}
		if !th.WaitAll(ids, 180*time.Second) {
			return fmt.Errorf("write batch timed out")
		}
		dests := make([][]byte, n)
		ids = ids[:0]
		for k := 0; k < n; k++ {
			dests[k] = make([]byte, len(data))
			id, err := th.AsyncRead(regionID, base+uint64(k)*256, dests[k])
			if err != nil {
				return fmt.Errorf("read %d: %w", k, err)
			}
			ids = append(ids, id)
		}
		if !th.WaitAll(ids, 180*time.Second) {
			return fmt.Errorf("read batch timed out")
		}
		for k, dest := range dests {
			if !bytes.Equal(dest, data) {
				return fmt.Errorf("op %d data mismatch", k)
			}
		}
		return nil
	}

	// sideTenant builds a fresh compute node with a single-thread client whose
	// region 0 is a new region of the pool, ready to be registered with or
	// adopted by the running engine. Only the control goroutine below drives
	// the builder.
	sideTenant := func(i int) (*Tenant, *core.Thread, error) {
		s.d.clientCfg = core.ClientConfig{Threads: 1, Layout: compact, BaseVA: 0x10_0000}
		side, err := s.d.newNode(100+i, []cluster.Extent{{Memnode: 0, NodeRegionID: uint16(i), Size: 1 << 20}})
		if err != nil {
			return nil, nil, err
		}
		th, err := side.Client.Thread(0)
		return side, th, err
	}

	// Control-plane churn, concurrent with the main traffic below: register
	// one new instance through the control path, adopt another (never served,
	// so its durable red blocks are zero — a valid takeover image), and
	// verify both serve traffic afterwards.
	ctlErr := make(chan error, 1)
	go func() {
		ctlErr <- func() error {
			time.Sleep(20 * time.Millisecond) // let the main workload get going

			for i, adopt := range []bool{false, true} {
				side, th, err := sideTenant(i + 1)
				if err != nil {
					return err
				}
				if err := s.d.attach(side, 0, adopt); err != nil {
					return fmt.Errorf("side tenant %d (adopt=%v): %w", i+1, adopt, err)
				}
				if err := batchPairs(th, 0, sideOps, byte(0xD1+i), 0); err != nil {
					return fmt.Errorf("side tenant %d (adopt=%v): %w", i+1, adopt, err)
				}
			}
			return nil
		}()
	}()

	// Main traffic: 8 of the 512 queue sets active.
	errs := make([]error, activeThreads)
	var workWG sync.WaitGroup
	for i := 0; i < activeThreads; i++ {
		workWG.Add(1)
		go func(ti int) {
			defer workWG.Done()
			th, err := s.Client.Thread(ti)
			if err != nil {
				errs[ti] = err
				return
			}
			errs[ti] = batchPairs(th, 0, opsPerThread, byte(ti+1), uint64(ti)*64<<10)
		}(i)
	}
	workWG.Wait()
	if err := <-ctlErr; err != nil {
		t.Fatal(err)
	}
	close(stop)
	scrapeWG.Wait()
	for ti, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v (a lost completion surfaces here as a timeout)", ti, err)
		}
	}

	// Exactly-once accounting across all three instances: one metadata entry
	// per op, none lost, none double-served — through loss recovery, snapshot
	// republication, and the adoption barrier.
	st := s.Spot.Stats()
	wantEntries := int64(2*activeThreads*opsPerThread + 2*2*sideOps)
	wantEach := wantEntries / 2
	if st.EntriesServed != wantEntries ||
		st.ReadsExecuted != wantEach || st.WritesExecuted != wantEach {
		t.Fatalf("completion accounting off: served=%d reads=%d writes=%d, want %d/%d/%d",
			st.EntriesServed, st.ReadsExecuted, st.WritesExecuted,
			wantEntries, wantEach, wantEach)
	}
	t.Logf("scaling stress: %d queue sets registered, %d entries served, %d frames (%d dropped)",
		totalQueueSets+2, st.EntriesServed, frames.Load(), frames.Load()/67)
}
