package spot

import (
	"bytes"
	"testing"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// TestServePathAllocFree is the tentpole's zero-allocation gate for the spot
// engine's per-request path: after warmup, a full round trip — client issue,
// one serveQueue round (probe, fetch, execute, red publish), client harvest —
// must not allocate on either side. The engine is never Run: rounds execute
// on the test goroutine via the control shard, exactly as a worker would
// drive them on its own, so the measurement covers the real serve path
// without background-goroutine noise. Any allocation is a regression: a staging
// buffer that escaped the arena, a per-round slice that lost its capacity, a
// map on the hot path.
func TestServePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI lane")
	}
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 9}, wire.IPv4Addr{10, 7, 0, 9}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	eng := New(engNIC, DefaultConfig())
	t.Cleanup(eng.Stop) // the demux runs from New even without Run

	lay := rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10}
	client, _ := wireInstanceLayout(t, f, eng, 0, 1, lay)
	inst := eng.insts.Load().instances[0]
	q := inst.queues[0]
	th, _ := client.Thread(0)

	data := bytes.Repeat([]byte{0x5A}, 256)
	dest := make([]byte, 256)
	var ids [2]core.ReqID

	roundTrip := func() {
		var err error
		if ids[0], err = th.AsyncWrite(0, data, 4096); err != nil {
			t.Fatal(err)
		}
		if ids[1], err = th.AsyncRead(0, 4096, dest); err != nil {
			t.Fatal(err)
		}
		n, err := eng.serveQueue(eng.ctl, inst.shared, inst, q, eng.cfg.MaxEntriesPerRound)
		if err != nil || n != 2 {
			t.Fatalf("round: served=%d err=%v", n, err)
		}
		if !th.Completed(ids[0]) || !th.Completed(ids[1]) {
			t.Fatal("round did not complete both requests")
		}
	}

	for i := 0; i < 64; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(500, func() { roundTrip() })
	if allocs != 0 {
		t.Fatalf("spot per-request path allocates %v allocs/op, want 0", allocs)
	}
}
