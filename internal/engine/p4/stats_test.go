package p4

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"cowbird/internal/rdma"
	"cowbird/internal/telemetry"
	"cowbird/internal/wire"
)

// TestStatsLockFree is the direct regression test for the scraper-stalls-
// forwarding bug: it takes the engine's only remaining mutex (the control-
// plane ctlMu; the datapath itself is lock-free now) and requires Stats()
// to return anyway. Pre-fix, Stats() blocked on the engine mutex and this
// test timed out.
func TestStatsLockFree(t *testing.T) {
	fabric := rdma.NewFabric()
	defer fabric.Close()
	eng := New(fabric, wire.MAC{2, 0xEE, 9, 0, 0, 3}, wire.IPv4Addr{10, 9, 9, 3}, DefaultConfig())
	eng.stats.probesSent.Add(7)

	eng.ctlMu.Lock()
	defer eng.ctlMu.Unlock()
	done := make(chan Stats, 1)
	go func() { done <- eng.Stats() }()
	select {
	case st := <-done:
		if st.ProbesSent != 7 {
			t.Fatalf("ProbesSent = %d, want 7", st.ProbesSent)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats() blocked on the datapath mutex")
	}
}

// TestStatsConcurrentWithForwarding scrapes Stats (and the registered
// gauges) from multiple goroutines while a live workload drives the data
// plane. Run under -race in CI: it proves the counters are safely published
// without e.mu.
func TestStatsConcurrentWithForwarding(t *testing.T) {
	eng, envs := newMultiInstance(t, 1)
	reg := telemetry.NewRegistry()
	eng.RegisterMetrics(reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = eng.Stats()
					_ = reg.Snapshot()
				}
			}
		}()
	}

	th, _ := envs[0].client.Thread(0)
	data := bytes.Repeat([]byte{0x5A}, 128)
	for i := 0; i < 20; i++ {
		if err := th.WriteSync(0, data, uint64(i)*128, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		dest := make([]byte, 128)
		if err := th.ReadSync(0, uint64(i)*128, dest, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := eng.Stats()
	if st.ReadsCompleted != 20 || st.WritesCompleted != 20 {
		t.Fatalf("completions under concurrent scrape: %+v", st)
	}
	snap := reg.Snapshot()
	if snap.Gauges["cowbird_p4_reads_completed"] != 20 {
		t.Fatalf("gauge snapshot: %+v", snap.Gauges)
	}
}

// TestServiceTimeSampled drives a workload through a telemetry-enabled
// switch and checks that every request's service time (SampleEvery=1)
// landed in the StageService histogram.
func TestServiceTimeSampled(t *testing.T) {
	hub := telemetry.New(telemetry.Config{SampleEvery: 1})
	cfg := testConfig()
	cfg.Telemetry = hub
	_, envs := newMultiInstanceCfg(t, 1, 1, cfg)
	th, _ := envs[0].client.Thread(0)
	data := bytes.Repeat([]byte{0xC3}, 64)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := th.WriteSync(0, data, uint64(i)*64, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		dest := make([]byte, 64)
		if err := th.ReadSync(0, uint64(i)*64, dest, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := hub.StageService.Count(); got != 2*rounds {
		t.Fatalf("StageService count = %d, want %d", got, 2*rounds)
	}
	if hub.StageService.Snapshot().Mean() <= 0 {
		t.Fatal("sampled service time is zero")
	}
}
