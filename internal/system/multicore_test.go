package system

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/cluster"
	"cowbird/internal/core"
	"cowbird/internal/telemetry"
)

// TestMulticoreStressUnderLoss drives 8 queue sets at GOMAXPROCS=4 through
// a run-to-completion worker each while the fabric drops a deterministic
// ~1.5% of frames and two observer goroutines hammer Stats() and the
// telemetry registry. It asserts exactly-once completion accounting (every
// op completes, the engine served exactly one entry per op) and a bounded
// p99 — the Clio-style property that tails stay flat when parallelism is
// real. Run it with -race: the point is that worker rounds, the adoption
// barrier, loss recovery, and the scrape paths share no unsynchronized
// state.
func TestMulticoreStressUnderLoss(t *testing.T) { runMulticoreStress(t, 0, 0) }

// TestSharedWorkersStressUnderLoss is the same workout for the configuration
// between the two deployed ones: Workers: 2, so each worker multiplexes four
// of the 8 queue sets plus whatever the control plane throws at it — a side
// instance is adopted, served and removed over and over while the main
// traffic runs, so slot lists are swapped under the barrier mid-pass-stream.
func TestSharedWorkersStressUnderLoss(t *testing.T) { runMulticoreStress(t, 2, 12) }

// runMulticoreStress is the body of both: workers is spot.Config.Workers,
// churn how many adopt → serve → remove cycles a side instance goes through
// concurrently with the main traffic.
func runMulticoreStress(t *testing.T, workers, churn int) {
	const (
		threads      = 8
		opsPerThread = 150
		churnPairs   = 4 // write/read pairs per churn cycle
	)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	tel := telemetry.New(telemetry.Config{SampleEvery: 64})
	s := startSystem(t, func(c *Config) {
		c.Threads = threads
		c.Telemetry = tel
		c.Spot.Workers = workers
	})

	// Deterministic loss: every 67th frame disappears. Go-Back-N recovers;
	// the op stream must not notice beyond latency.
	var frames atomic.Uint64
	s.Fabric.SetLossFn(func([]byte) bool { return frames.Add(1)%67 == 0 })

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(2)
	go func() { // Stats scrape: aggregates every shard's counters
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Spot.Stats()
				_ = s.Spot.PoolDegraded()
				runtime.Gosched()
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

	// Control-plane churn: one side instance (own compute node, own pool
	// region) migrates in and out of the engine. Every adoption reads the
	// red blocks the previous residency left behind, so a lost or replayed
	// entry across a removal shows up in the accounting below.
	churnErr := make(chan error, 1)
	go func() {
		churnErr <- func() error {
			if churn == 0 {
				return nil
			}
			// A single-thread side tenant; its region 0 is node-local region 1
			// of the pool.
			s.d.clientCfg = core.ClientConfig{Threads: 1, Layout: DefaultConfig().Layout, BaseVA: 0x10_0000}
			side, err := s.d.newNode(100, []cluster.Extent{{Memnode: 0, NodeRegionID: 1, Size: 1 << 20}})
			if err != nil {
				return err
			}
			th, err := side.Client.Thread(0)
			if err != nil {
				return err
			}
			data, dest := bytes.Repeat([]byte{0xC4}, 128), make([]byte, 128)
			for c := 0; c < churn; c++ {
				if err := s.d.attach(side, 0, true); err != nil {
					return fmt.Errorf("churn %d adopt: %w", c, err)
				}
				for k := 0; k < churnPairs; k++ {
					off := uint64(c*churnPairs+k) * 256
					if err := th.WriteSync(0, data, off, 30*time.Second); err != nil {
						return fmt.Errorf("churn %d write %d: %w", c, k, err)
					}
					if err := th.ReadSync(0, off, dest, 30*time.Second); err != nil {
						return fmt.Errorf("churn %d read %d: %w", c, k, err)
					}
					if !bytes.Equal(dest, data) {
						return fmt.Errorf("churn %d op %d data mismatch", c, k)
					}
				}
				if !s.d.detach(side) {
					return fmt.Errorf("churn %d: side instance not resident", c)
				}
			}
			return nil
		}()
	}()

	lats := make([][]time.Duration, threads)
	errs := make([]error, threads)
	var workWG sync.WaitGroup
	for i := 0; i < threads; i++ {
		workWG.Add(1)
		go func(ti int) {
			defer workWG.Done()
			th, err := s.Client.Thread(ti)
			if err != nil {
				errs[ti] = err
				return
			}
			data := bytes.Repeat([]byte{byte(ti + 1)}, 128)
			dest := make([]byte, len(data))
			base := uint64(ti) * 64 << 10
			for k := 0; k < opsPerThread; k++ {
				off := base + uint64(k%128)*256
				t0 := time.Now()
				if err := th.WriteSync(0, data, off, 30*time.Second); err != nil {
					errs[ti] = fmt.Errorf("op %d write: %w", k, err)
					return
				}
				if err := th.ReadSync(0, off, dest, 30*time.Second); err != nil {
					errs[ti] = fmt.Errorf("op %d read: %w", k, err)
					return
				}
				lats[ti] = append(lats[ti], time.Since(t0))
				if !bytes.Equal(dest, data) {
					errs[ti] = fmt.Errorf("op %d data mismatch", k)
					return
				}
			}
		}(i)
	}
	workWG.Wait()
	if err := <-churnErr; err != nil {
		t.Fatal(err)
	}
	close(stop)
	scrapeWG.Wait()
	for ti, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v (a lost completion surfaces here as a timeout)", ti, err)
		}
	}

	// Exactly-once accounting: one metadata entry per op, none lost, none
	// double-served, across every shard and every residency of the side
	// instance.
	st := s.Spot.Stats()
	wantEntries := int64(2*threads*opsPerThread + 2*churn*churnPairs)
	if st.EntriesServed != wantEntries ||
		st.ReadsExecuted != wantEntries/2 || st.WritesExecuted != wantEntries/2 {
		t.Fatalf("completion accounting off: served=%d reads=%d writes=%d, want %d/%d/%d",
			st.EntriesServed, st.ReadsExecuted, st.WritesExecuted,
			wantEntries, wantEntries/2, wantEntries/2)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)*99/100]
	// Bounded tail: generous on purpose (race detector + loss recovery +
	// an oversubscribed harness), but a lost completion or a livelocked
	// worker would blow far past it.
	if p99 > 5*time.Second {
		t.Fatalf("p99 %v exceeds bound (p50 %v)", p99, all[len(all)/2])
	}
	t.Logf("stress: %d ops, p50=%v p99=%v, %d frames (%d dropped)",
		len(all), all[len(all)/2], p99, frames.Load(), frames.Load()/67)
}
