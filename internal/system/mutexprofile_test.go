package system

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// hotPathContention reads the runtime mutex profile and sums contention
// events on locks the engine package *owns*: records whose innermost
// non-runtime/sync frame — the function that actually held the mutex —
// carries pkgPrefix (a fully-qualified function-name prefix such as
// "cowbird/internal/engine/spot."). Records where an engine frame merely
// appears deeper in the stack are the rdma layer's own sharded per-QP /
// per-CQ / inbox locks, contended by design against the fabric's delivery
// goroutines and gated by that layer's benchmarks, not here. Cold-path
// owners — the adoption barrier, instance registration, the control
// plane — are expected to contend and are excluded; the point of the gate
// is the per-request path, which after the control/data split holds no
// shared engine lock at all. Channel operations never appear here:
// runtime.MutexProfile records only sync.Mutex/RWMutex contention, so the
// control goroutine's rendezvous channel is invisible by construction,
// which is exactly the property the gate wants (channel handoffs are
// allowed on control ops, locks are not).
func hotPathContention(pkgPrefix string, coldPath []string) (events int64, stacks []string) {
	var recs []runtime.BlockProfileRecord
	n, ok := runtime.MutexProfile(nil)
	for !ok {
		recs = make([]runtime.BlockProfileRecord, n+64)
		n, ok = runtime.MutexProfile(recs)
	}
	recs = recs[:n]
rec:
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		var owner string
		var desc []string
		for {
			fr, more := frames.Next()
			desc = append(desc, fr.Function)
			if owner == "" && !strings.HasPrefix(fr.Function, "sync.") &&
				!strings.HasPrefix(fr.Function, "runtime.") {
				owner = fr.Function
			}
			if !more {
				break
			}
		}
		if !strings.Contains(owner, pkgPrefix) {
			continue
		}
		for _, cold := range coldPath {
			if strings.Contains(owner, cold) {
				continue rec
			}
		}
		events += r.Count
		stacks = append(stacks, fmt.Sprintf("%d events: %s", r.Count, strings.Join(desc, " <- ")))
	}
	return events, stacks
}

// spotColdPath lists the spot engine frames allowed to contend: the
// stop-the-world barrier, registration and worker lifecycle, replica
// failover bookkeeping, and the control goroutine that publishes instance
// snapshots and slot lists (ctlLoop serializes control ops under ctlGate;
// runCtl is its inline fallback after Stop). None of these sit on the serve
// path.
var spotColdPath = []string{
	".quiesceWorkers", ".Register", ".placeLocked", ".RemoveInstance",
	".markReplicaDead", ".PoolDegraded", ".startWorkers", ".Stop",
	".ctlLoop", ".runCtl",
}

// p4ColdPath lists the p4 engine frames allowed to contend: Setup is the
// control path (ctlMu serializes snapshot publication), Stop tears down the
// probe goroutine. Process and everything under it must never appear — the
// datapath reads one atomic snapshot pointer and owns all soft state under
// the fabric's forwarding lock, which is the rdma layer's (its holder is
// Fabric.Send, so it is not counted here) and the only lock on the path.
var p4ColdPath = []string{".Setup", ".Stop"}

// driveMutexGateTraffic runs the measured window: four client threads doing
// synchronous write/read pairs against region 0, enough volume that a lock
// actually shared on the per-request path records thousands of events.
func driveMutexGateTraffic(t *testing.T, s *System, threads int) {
	t.Helper()
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th, err := s.Client.Thread(ti)
			if err != nil {
				t.Error(err)
				return
			}
			data := bytes.Repeat([]byte{byte(ti + 1)}, 256)
			dest := make([]byte, len(data))
			base := uint64(ti) * 256 << 10
			// Ring-full is backpressure, not failure: request-data ring
			// bytes are reclaimed on the engine's bookkeeping cadence, so a
			// slow measured run (race-instrumented hosts) can briefly
			// outpace reclamation even with sync ops. Retry until the ring
			// drains; only a persistent error is real.
			retrying := func(op func() error) error {
				deadline := time.Now().Add(60 * time.Second)
				for {
					err := op()
					if err == nil || !strings.Contains(err.Error(), "ring full") ||
						time.Now().After(deadline) {
						return err
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
			for k := 0; k < 200; k++ {
				off := base + uint64(k%64)*512
				if err := retrying(func() error { return th.WriteSync(0, data, off, 10*time.Second) }); err != nil {
					t.Errorf("thread %d write %d: %v", ti, k, err)
					return
				}
				if err := retrying(func() error { return th.ReadSync(0, off, dest, 10*time.Second) }); err != nil {
					t.Errorf("thread %d read %d: %v", ti, k, err)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
}

// runMutexGate is the shared body of the contention smoke gates: start a
// deployment, enable mutex profiling at full sampling for the measured
// window only, drive traffic, and fail if the engine package's per-request
// path shows up in the profile beyond scheduler noise.
func runMutexGate(t *testing.T, mutate func(*Config), pkgPrefix string, coldPath []string) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s := startSystem(t, mutate)

	// Enable profiling only for the measured window so earlier tests in
	// this binary can't pollute the gate; diff against whatever the profile
	// already holds anyway, for belt and suspenders.
	base, _ := hotPathContention(pkgPrefix, coldPath)
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	driveMutexGateTraffic(t, s, 4)

	events, stacks := hotPathContention(pkgPrefix, coldPath)
	// A handful of events is tolerated for scheduler noise on oversubscribed
	// CI hosts; a lock actually shared between workers records thousands
	// under this op count.
	const budget = 25
	if events-base > budget {
		t.Fatalf("%s hot-path lock contention: %d events (budget %d)\n%s",
			pkgPrefix, events-base, budget, strings.Join(stacks, "\n"))
	}
	t.Logf("%s hot-path contention events: %d (budget %d)", pkgPrefix, events-base, budget)
}

// TestHotPathMutexProfileClean is the contention smoke gate for the spot
// engine with a dedicated worker per queue set: the worker round lock
// (worker.roundMu) is taken once per pass but only ever by its own worker
// outside the stop-the-world barrier, so it must record zero contention,
// and no other engine lock may appear at all. A regression that
// reintroduces a shared lock on the per-request path fails this test before
// it shows up as a scaling-curve plateau.
func TestHotPathMutexProfileClean(t *testing.T) {
	runMutexGate(t, func(c *Config) { c.Threads = 4 },
		"cowbird/internal/engine/spot.", spotColdPath)
}

// TestHotPathMutexProfileCleanSpotShared gates pinned workers that share
// queue sets — Workers: 1 (the fleet's setting: one goroutine serves every
// slot) and Workers: 2 (two workers, two slots each). Each takes only its
// own round lock, once per pass, and reads its slot list from an atomic
// snapshot. No per-queue or per-instance lock may appear.
func TestHotPathMutexProfileCleanSpotShared(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runMutexGate(t, func(c *Config) { c.Threads = 4; c.Spot.Workers = workers },
				"cowbird/internal/engine/spot.", spotColdPath)
		})
	}
}

// TestHotPathMutexProfileCleanP4 gates the p4 engine: Process runs under the
// fabric's forwarding lock against an atomically-loaded COW snapshot of the
// instance table and takes no lock of its own, so no p4 frame outside
// Setup/Stop may contend.
func TestHotPathMutexProfileCleanP4(t *testing.T) {
	runMutexGate(t, func(c *Config) { c.Threads = 4; c.Engine = EngineP4 },
		"cowbird/internal/engine/p4.", p4ColdPath)
}
