package spot

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// The wait ladder's tests gate on work, not time: probes and response batches
// per operation under a closed loop that — like the repository benchmark's —
// polls without blocking and yields when nothing moved. GOMAXPROCS(1) is the
// configuration the ladder exists for: the engine can only be handed work by
// a client that shares its P.

// closedLoopReads keeps window 64 B reads in flight on th until total have
// completed.
func closedLoopReads(t *testing.T, th *core.Thread, window, total int) {
	t.Helper()
	grp := th.PollCreate()
	bufs := make([][]byte, window)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	issued, done := 0, 0
	for deadline := time.Now().Add(60 * time.Second); done < total; {
		ids, err := grp.WaitErr(window, 0)
		if err != nil {
			t.Fatalf("poll after %d ops: %v", done, err)
		}
		done += len(ids)
		progressed := len(ids) > 0
		for issued < total && issued-done < window {
			id, err := th.AsyncRead(0, uint64(issued%window)*64, bufs[issued%window])
			if err != nil {
				break // ring full: harvest first
			}
			if err := grp.Add(id); err != nil {
				t.Fatal(err)
			}
			issued++
			progressed = true
		}
		if !progressed {
			if time.Now().After(deadline) {
				t.Fatalf("closed loop stalled at %d/%d ops", done, total)
			}
			runtime.Gosched()
		}
	}
}

func TestProbeEconomyDedicated(t *testing.T) {
	const window, total = 16, 20_000
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f := rdma.NewFabric()
			t.Cleanup(f.Close)
			engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 11}, wire.IPv4Addr{10, 7, 0, 11}, rdma.DefaultConfig())
			t.Cleanup(engNIC.Close)
			eng := New(engNIC, DefaultConfig())
			t.Cleanup(eng.Stop)
			client, _ := wireInstance(t, f, eng, 0)
			eng.Run()
			th, _ := client.Thread(0)

			closedLoopReads(t, th, window, window*8) // warm-up: the slot turns hot
			s0 := eng.Stats()
			closedLoopReads(t, th, window, total)
			s1 := eng.Stats()
			if procs != 1 {
				return // with a P of its own the worker's yield is a spin; it only has to serve
			}
			// One probe finds a full window: the worker yields after serving
			// and the client refills the window before the next probe.
			probes := float64(s1.Probes-s0.Probes) / total
			batches := float64(s1.ResponseBatches-s0.ResponseBatches) / total
			parks := float64(s1.WorkerParks-s0.WorkerParks) / total
			yields := float64(s1.WorkerYields-s0.WorkerYields) / total
			t.Logf("%.4f probes/op, %.4f response batches/op, %.4f worker parks/op, %.4f yields/op", probes, batches, parks, yields)
			if probes > 0.125 {
				t.Errorf("%.4f probes/op, want <= 0.125 (one per %d-op round is %.4f)", probes, window, 1.0/window)
			}
			if batches > 1.1/window {
				t.Errorf("%.4f response batches/op, want %.4f", batches, 1.0/window)
			}
			// The client refills the window within one yield, so the slot never
			// spends its hot budget: the worker yields once a round and never
			// parks on its timer (0 measured; one park per thousand ops is the
			// margin).
			if parks > 0.001 {
				t.Errorf("%.4f worker parks/op under a closed loop, want ~0", parks)
			}
		})
	}
}

func TestProbeEconomyShared(t *testing.T) {
	const slots, window, total = 32, 16, 20_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.HeartbeatInterval = time.Minute // lease renewals are not what is counted here
	h := wireSharedPool(t, cfg, slots)
	h.eng.Run()
	th, _ := h.clients[0].Thread(0)

	closedLoopReads(t, th, window, window*8)
	s0 := h.eng.Stats()
	closedLoopReads(t, th, window, total)
	s1 := h.eng.Stats()
	// The hot slot is probed once a round whatever its 31 cold neighbours
	// do, and they cost a bounded share on top.
	probes := float64(s1.Probes-s0.Probes) / total
	if probes > 1 {
		t.Errorf("%.4f probes/op with 1 of %d slots active, want <= 1", probes, slots)
	}

	// Idle stretch: the active slot cools after idleYieldRounds misses, and
	// from then on all the probing there is must fit the derived budget — an
	// eighth of the worker, gated at a quarter. Without a cap the 31 idle
	// slots re-probe every ProbeInterval, which is all of it. The budget is
	// counted in the worker's own smoothed probe time, sampled between passes
	// (the median, so that one stalled probe does not price all the others).
	start := time.Now()
	var probeTimes []time.Duration
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		resume := h.eng.quiesceWorkers()
		probeTimes = append(probeTimes, h.eng.workers[0].shard.probeTime)
		resume()
	}
	idleProbes := h.eng.Stats().Probes - s1.Probes - idleYieldRounds
	elapsed := time.Since(start)
	slices.Sort(probeTimes)
	probeTime := probeTimes[len(probeTimes)/2]
	spent := time.Duration(idleProbes) * probeTime
	t.Logf("active: %.4f probes/op; idle: %d probes of ~%v in %v", probes, idleProbes, probeTime, elapsed)
	if spent > elapsed/4 {
		t.Errorf("%d idle probes of ~%v each took %v of a %v idle stretch, want at most an eighth",
			idleProbes, probeTime, spent, elapsed)
	}
}

func TestNewSlotsStartCold(t *testing.T) {
	const slots = 1024
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 12}, wire.IPv4Addr{10, 7, 0, 12}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.StagingBytes = 64 << 10
	cfg.HeartbeatInterval = time.Minute
	// A paced probe waits at least this long, so every probe counted below is
	// one a slot got before it was paced.
	cfg.ProbeInterval = 200 * time.Millisecond
	eng := New(engNIC, cfg)
	t.Cleanup(eng.Stop)
	eng.Run()
	lay := rings.Layout{MetaEntries: 16, ReqDataBytes: 1 << 10, RespDataBytes: 1 << 10}
	wireInstanceLayout(t, f, eng, 0, slots, lay)

	for deadline := time.Now().Add(10 * time.Second); eng.Stats().Probes < slots; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d new slots probed", eng.Stats().Probes, slots)
		}
		time.Sleep(time.Millisecond)
	}
	// A slot born hot is re-probed on every pass of its hot phase; the next
	// few passes would already be thousands of probes.
	time.Sleep(20 * time.Millisecond)
	if p := eng.Stats().Probes; p > 2*slots {
		t.Fatalf("%d probes to register %d idle slots, want at most 2 per slot", p, slots)
	}
}
