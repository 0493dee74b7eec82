package spot

import (
	"bytes"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

func TestConfigDefaultsApplied(t *testing.T) {
	f := rdma.NewFabric()
	defer f.Close()
	nic := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 1}, wire.IPv4Addr{10, 7, 0, 1}, rdma.DefaultConfig())
	defer nic.Close()
	e := New(nic, Config{}) // all zero: every field must be defaulted
	if e.cfg.BatchSize < 1 || e.cfg.StagingBytes <= 0 || e.cfg.Workers != 1 || e.opTimeout <= 0 {
		t.Fatalf("defaults not applied: %+v", e.cfg)
	}
	if len(e.workers) != 1 || len(e.shards) != 2 || e.NIC() != nic {
		t.Fatal("accessors")
	}
	e.Run()
	e.Stop()
	e.Stop() // idempotent
}

// onePool is the Registration of an instance backed by a single pool node
// that hosts every region, over eps (one per queue).
func onePool(in *core.Instance, eps ...QueueEndpoints) Registration {
	return Registration{Instance: in, Pools: []PoolReplica{{Regions: in.Regions}}, Queues: eps}
}

// queueEndpoints connects one queue set's QPs on eng — to compute, then to
// every pool node in order — all completing into a fresh send CQ.
func queueEndpoints(eng *Engine, compute *rdma.NIC, pools ...*rdma.NIC) QueueEndpoints {
	ep := QueueEndpoints{SendCQ: rdma.NewCQ()}
	ep.ComputeQP, _ = rdma.ConnectPair(eng.NIC(), ep.SendCQ, 1000, compute, 2000)
	for _, p := range pools {
		qp, _ := rdma.ConnectPair(eng.NIC(), ep.SendCQ, 3000, p, 4000)
		ep.Pools = append(ep.Pools, qp)
	}
	return ep
}

// wireInstance builds one compute/pool pair served by eng.
func wireInstance(t *testing.T, f *rdma.Fabric, eng *Engine, i int) (*core.Client, *memnode.Node) {
	t.Helper()
	compute := rdma.NewNIC(f, wire.MAC{2, 0xAA, 1, 0, 0, byte(i)}, wire.IPv4Addr{10, 7, 1, byte(i)}, rdma.DefaultConfig())
	t.Cleanup(compute.Close)
	pool := memnode.New(f, wire.MAC{2, 0xAA, 2, 0, 0, byte(i)}, wire.IPv4Addr{10, 7, 2, byte(i)}, rdma.DefaultConfig())
	t.Cleanup(pool.Close)
	client, err := core.NewClient(compute, core.ClientConfig{
		Threads: 1,
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

	if err := eng.Register(onePool(client.Describe(i), queueEndpoints(eng, compute, pool.NIC()))); err != nil {
		t.Fatal(err)
	}
	return client, pool
}

// TestMultiInstanceRoundRobin serves two compute/pool pairs from one agent
// (§6: a spot engine "can handle multiple compute nodes simultaneously").
func TestMultiInstanceRoundRobin(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 9}, wire.IPv4Addr{10, 7, 0, 9}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	eng := New(engNIC, cfg)

	c0, p0 := wireInstance(t, f, eng, 0)
	c1, p1 := wireInstance(t, f, eng, 1)
	eng.Run()
	t.Cleanup(eng.Stop)

	for i, cp := range []struct {
		c *core.Client
		p *memnode.Node
	}{{c0, p0}, {c1, p1}} {
		th, _ := cp.c.Thread(0)
		data := bytes.Repeat([]byte{byte(0x50 + i)}, 128)
		if err := th.WriteSync(0, data, 2048, 10*time.Second); err != nil {
			t.Fatalf("instance %d write: %v", i, err)
		}
		dest := make([]byte, 128)
		if err := th.ReadSync(0, 2048, dest, 10*time.Second); err != nil {
			t.Fatalf("instance %d read: %v", i, err)
		}
		if !bytes.Equal(dest, data) {
			t.Fatalf("instance %d data mismatch", i)
		}
		got, err := cp.p.Peek(0, 2048, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0x50+i) {
			t.Fatalf("instance %d pool isolation violated", i)
		}
	}
	st := eng.Stats()
	if st.EntriesServed != 4 || st.ReadsExecuted != 2 || st.WritesExecuted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestConflictStallOnOverlap drives a write immediately followed by an
// overlapping read into one engine round and checks the §6 range-overlap
// check fires (and returns correct data).
func TestConflictStallOnOverlap(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 8}, wire.IPv4Addr{10, 7, 0, 8}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	cfg := DefaultConfig()
	// Slow probing so both requests land in one metadata fetch.
	cfg.ProbeInterval = 3 * time.Millisecond
	eng := New(engNIC, cfg)
	client, _ := wireInstance(t, f, eng, 0)
	eng.Run()
	t.Cleanup(eng.Stop)

	th, _ := client.Thread(0)
	g := th.PollCreate()
	for round := 0; round < 5; round++ {
		data := bytes.Repeat([]byte{byte(round + 1)}, 128)
		wid, err := th.AsyncWrite(0, data, 512)
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]byte, 128)
		rid, err := th.AsyncRead(0, 512, dest)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(wid); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(rid); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for g.Len() > 0 && time.Now().Before(deadline) {
			g.Wait(4, 100*time.Millisecond)
		}
		if g.Len() > 0 {
			t.Fatalf("round %d stalled", round)
		}
		if !bytes.Equal(dest, data) {
			t.Fatalf("round %d: read-after-write returned stale data", round)
		}
	}
	if eng.Stats().ConflictStalls == 0 {
		t.Fatal("range-overlap check never fired for overlapping write+read")
	}
}

// TestNonOverlappingReadsDoNotStall: writes and reads to disjoint ranges in
// the same round must not trigger the conflict barrier.
func TestNonOverlappingReadsDoNotStall(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 7}, wire.IPv4Addr{10, 7, 0, 7}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	cfg := DefaultConfig()
	cfg.ProbeInterval = 3 * time.Millisecond
	eng := New(engNIC, cfg)
	client, _ := wireInstance(t, f, eng, 0)
	eng.Run()
	t.Cleanup(eng.Stop)

	th, _ := client.Thread(0)
	g := th.PollCreate()
	for i := 0; i < 8; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 64)
		wid, err := th.AsyncWrite(0, data, uint64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]byte, 64)
		rid, err := th.AsyncRead(0, uint64(i)*4096+2048, dest) // disjoint
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(wid); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(rid); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Len() > 0 && time.Now().Before(deadline) {
		g.Wait(16, 100*time.Millisecond)
	}
	if g.Len() > 0 {
		t.Fatal("requests stalled")
	}
	if eng.Stats().ConflictStalls != 0 {
		t.Fatalf("conflict stalls on disjoint ranges: %d", eng.Stats().ConflictStalls)
	}
}

func TestOverlapsWriteHelper(t *testing.T) {
	mk := func(typ rings.OpType, addr uint64, n uint32, region uint16) op {
		e := rings.Entry{Type: typ, Length: n, RegionID: region}
		if typ == rings.OpWrite {
			e.RespAddr = addr
		} else {
			e.ReqAddr = addr
		}
		return op{entry: e}
	}
	batch := []op{mk(rings.OpWrite, 100, 50, 0)}
	if !overlapsWrite(batch, mk(rings.OpRead, 120, 10, 0)) {
		t.Error("contained overlap missed")
	}
	if !overlapsWrite(batch, mk(rings.OpRead, 90, 20, 0)) {
		t.Error("left-edge overlap missed")
	}
	if overlapsWrite(batch, mk(rings.OpRead, 150, 10, 0)) {
		t.Error("adjacent range flagged")
	}
	if overlapsWrite(batch, mk(rings.OpRead, 120, 10, 1)) {
		t.Error("different region flagged")
	}
	if overlapsWrite([]op{mk(rings.OpRead, 100, 50, 0)}, mk(rings.OpRead, 100, 50, 0)) {
		t.Error("read-read flagged")
	}
}
