package spot

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// TestStartStopCyclesLeakNothing builds a complete engine+instance stack,
// serves traffic, and tears it all down — several times — asserting the
// goroutine count returns to its starting point. This is the regression
// test for the shard-timer/worker lifecycle: a worker that misses the stop
// signal (parked in pause or waitAll), a demux that outlives its CQ, or a
// shard timer left pending after Stop all hold goroutines or runtime timer
// entries past teardown and show up here.
func TestStartStopCyclesLeakNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 4; cycle++ {
		runCycle(t, cycle)
		// Everything is closed; give exiting goroutines a moment to die.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("cycle %d: %d goroutines, started with %d\n%s",
				cycle, now, before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// runCycle stands up a fabric, engine, client, and pool, pushes one op
// through (so workers actually serve, then idle through the yield → park
// ladder), and tears everything down in order.
func runCycle(t *testing.T, cycle int) {
	t.Helper()
	f := rdma.NewFabric()
	defer f.Close()
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAB, 0, 0, 0, byte(cycle)}, wire.IPv4Addr{10, 8, 0, byte(cycle + 1)}, rdma.DefaultConfig())
	defer engNIC.Close()
	compute := rdma.NewNIC(f, wire.MAC{2, 0xAB, 1, 0, 0, byte(cycle)}, wire.IPv4Addr{10, 8, 1, byte(cycle + 1)}, rdma.DefaultConfig())
	defer compute.Close()
	pool := memnode.New(f, wire.MAC{2, 0xAB, 2, 0, 0, byte(cycle)}, wire.IPv4Addr{10, 8, 2, byte(cycle + 1)}, rdma.DefaultConfig())
	defer pool.Close()

	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	eng := New(engNIC, cfg)
	defer eng.Stop()

	client, err := core.NewClient(compute, core.ClientConfig{
		Threads: 2,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	if err != nil {
		t.Fatal(err)
	}
	region, err := pool.AllocRegion(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	client.RegisterRegion(region)

	unused := rdma.NewCQ()
	eComp := engNIC.CreateQP(eng.CQ(), unused, 1000)
	cQP := compute.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 2000)
	eComp.Connect(rdma.RemoteEndpoint{QPN: cQP.QPN(), MAC: compute.MAC(), IP: compute.IP()}, 2000)
	cQP.Connect(rdma.RemoteEndpoint{QPN: eComp.QPN(), MAC: engNIC.MAC(), IP: engNIC.IP()}, 1000)
	eMem := engNIC.CreateQP(eng.CQ(), unused, 3000)
	mQP := pool.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), 4000)
	eMem.Connect(rdma.RemoteEndpoint{QPN: mQP.QPN(), MAC: pool.NIC().MAC(), IP: pool.NIC().IP()}, 4000)
	mQP.Connect(rdma.RemoteEndpoint{QPN: eMem.QPN(), MAC: engNIC.MAC(), IP: engNIC.IP()}, 3000)
	if err := eng.Register(onePool(client.Describe(0), eComp, eMem)); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	th, _ := client.Thread(0)
	data := bytes.Repeat([]byte{byte(0x30 + cycle)}, 64)
	if err := th.WriteSync(0, data, 512, 10*time.Second); err != nil {
		t.Fatalf("cycle %d write: %v", cycle, err)
	}
	// Let both workers drain their idle budgets and park before teardown:
	// idleYieldRounds probes take a few milliseconds at most.
	time.Sleep(20 * time.Millisecond)
}
