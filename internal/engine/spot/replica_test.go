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

// repHarness is one compute node and N pool replicas served by one engine.
type repHarness struct {
	eng    *Engine
	client *core.Client
	pools  []*memnode.Node
	eMem   []*rdma.QP // engine→pool QPs, one per replica
}

// wireReplicated builds an engine serving one instance backed by nreps pool
// replicas, every QP on the NIC's default retry budget: each QP's RTO follows
// its own measured round trips, so a scheduler stall does not read as a dead
// replica, and a crashed one is declared dead within MaxRetries+2 RTOs.
// Replicas beyond the first host region 0 at a shifted base so the test
// exercises per-replica address translation, not just QP fan-out.
func wireReplicated(t *testing.T, nreps int, cfg Config) *repHarness {
	t.Helper()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 4, 0, 0, 9}, wire.IPv4Addr{10, 7, 4, 9}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	eng := New(engNIC, cfg)

	compute := rdma.NewNIC(f, wire.MAC{2, 0xAA, 4, 1, 0, 1}, wire.IPv4Addr{10, 7, 4, 1}, rdma.DefaultConfig())
	t.Cleanup(compute.Close)
	client, err := core.NewClient(compute, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	if err != nil {
		t.Fatal(err)
	}

	h := &repHarness{eng: eng, client: client}
	unused := rdma.NewCQ()
	var reps []PoolReplica
	for r := 0; r < nreps; r++ {
		pool := memnode.New(f, wire.MAC{2, 0xAA, 4, 2, 0, byte(r)}, wire.IPv4Addr{10, 7, 4, 2 + byte(r)}, rdma.DefaultConfig())
		t.Cleanup(pool.Close)
		if r > 0 {
			// Skew this replica's VA space so region 0 sits at a different
			// base than the primary's copy.
			if _, err := pool.AllocRegion(99, 4096*(r+1)); err != nil {
				t.Fatal(err)
			}
		}
		region, err := pool.AllocRegion(0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			client.RegisterRegion(region)
		}
		psn := uint32(5000 + r*200)
		eMem := engNIC.CreateQP(eng.CQ(), unused, psn)
		mQP := pool.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), psn+100)
		eMem.Connect(rdma.RemoteEndpoint{QPN: mQP.QPN(), MAC: pool.NIC().MAC(), IP: pool.NIC().IP()}, psn+100)
		mQP.Connect(rdma.RemoteEndpoint{QPN: eMem.QPN(), MAC: engNIC.MAC(), IP: engNIC.IP()}, psn)
		reps = append(reps, PoolReplica{QP: eMem, Regions: []core.RegionInfo{region}})
		h.pools = append(h.pools, pool)
		h.eMem = append(h.eMem, eMem)
	}

	eComp := engNIC.CreateQP(eng.CQ(), unused, 9000)
	cQP := compute.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 9100)
	eComp.Connect(rdma.RemoteEndpoint{QPN: cQP.QPN(), MAC: compute.MAC(), IP: compute.IP()}, 9100)
	cQP.Connect(rdma.RemoteEndpoint{QPN: eComp.QPN(), MAC: engNIC.MAC(), IP: engNIC.IP()}, 9000)

	if err := eng.Register(Registration{Instance: client.Describe(0), ComputeQP: eComp, Pools: reps}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	t.Cleanup(eng.Stop)
	return h
}

// TestReplicatedWriteMirrors: with two replicas, every acked write is
// present in both pools (at the region offset, independent of each pool's
// base), reads return correct data, and the mirror counter accounts for the
// extra replica writes.
func TestReplicatedWriteMirrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	h := wireReplicated(t, 2, cfg)
	th, _ := h.client.Thread(0)

	data := bytes.Repeat([]byte{0x5C}, 256)
	if err := th.WriteSync(0, data, 4096, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	dest := make([]byte, 256)
	if err := th.ReadSync(0, 4096, dest, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("read-back mismatch")
	}
	for r, pool := range h.pools {
		got, err := pool.Peek(0, 4096, 256)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d missing the write", r)
		}
	}
	st := h.eng.Stats()
	if st.ReplicaWrites < 1 {
		t.Fatalf("ReplicaWrites = %d, want >= 1", st.ReplicaWrites)
	}
	if h.eng.PoolDegraded() {
		t.Fatal("healthy instance reported degraded")
	}
}

// TestFailoverOnPrimaryCrash: kill the primary pool mid-workload; reads and
// writes keep completing with correct data off the surviving replica, the
// engine records exactly one failover, and PoolDegraded turns true.
func TestFailoverOnPrimaryCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.PoolHeartbeatInterval = 200 * time.Microsecond
	h := wireReplicated(t, 2, cfg)
	th, _ := h.client.Thread(0)

	data := bytes.Repeat([]byte{0xA7}, 512)
	if err := th.WriteSync(0, data, 8192, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	h.pools[0].Crash()

	// A read issued against the dead primary must transparently fail over
	// and return the pre-crash write.
	dest := make([]byte, 512)
	if err := th.ReadSync(0, 8192, dest, 10*time.Second); err != nil {
		t.Fatalf("read after primary crash: %v", err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("failover read returned wrong data")
	}

	// The degraded instance keeps serving new writes and reads.
	data2 := bytes.Repeat([]byte{0x3B}, 128)
	if err := th.WriteSync(0, data2, 64<<10, 10*time.Second); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	dest2 := make([]byte, 128)
	if err := th.ReadSync(0, 64<<10, dest2, 10*time.Second); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if !bytes.Equal(dest2, data2) {
		t.Fatal("post-failover write not readable")
	}

	st := h.eng.Stats()
	if st.PoolFailovers != 1 {
		t.Fatalf("PoolFailovers = %d, want 1", st.PoolFailovers)
	}
	if !h.eng.PoolDegraded() {
		t.Fatal("PoolDegraded should be true after a replica death")
	}
}

// TestIdlePrimaryDeathDetectedByHeartbeat: with no client traffic at all,
// the paced liveness READs notice a dead primary and rotate, so the first
// read after a long idle period doesn't eat the detection latency.
func TestIdlePrimaryDeathDetectedByHeartbeat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.PoolHeartbeatInterval = 200 * time.Microsecond
	h := wireReplicated(t, 2, cfg)
	th, _ := h.client.Thread(0)

	data := bytes.Repeat([]byte{0xD4}, 64)
	if err := th.WriteSync(0, data, 1024, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	h.pools[0].Crash()
	deadline := time.Now().Add(5 * time.Second)
	for !h.eng.PoolDegraded() {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never detected the idle primary's death")
		}
		time.Sleep(time.Millisecond)
	}
	st := h.eng.Stats()
	if st.PoolHeartbeats == 0 {
		t.Fatal("no pool heartbeats were issued")
	}
	if st.PoolFailovers != 1 {
		t.Fatalf("PoolFailovers = %d, want 1", st.PoolFailovers)
	}
	// The rotation happened before any client op; this read goes straight
	// to the survivor.
	dest := make([]byte, 64)
	if err := th.ReadSync(0, 1024, dest, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("post-detection read returned wrong data")
	}
}

// TestReplicatedOneWorker: a pinned shared worker drives the same
// mirroring, heartbeat, and failover machinery as a dedicated one.
func TestReplicatedOneWorker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.PoolHeartbeatInterval = 200 * time.Microsecond
	cfg.Workers = 1
	h := wireReplicated(t, 2, cfg)
	th, _ := h.client.Thread(0)

	data := bytes.Repeat([]byte{0x66}, 256)
	if err := th.WriteSync(0, data, 2048, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	h.pools[0].Crash()
	dest := make([]byte, 256)
	if err := th.ReadSync(0, 2048, dest, 10*time.Second); err != nil {
		t.Fatalf("one-worker failover read: %v", err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("one-worker failover read returned wrong data")
	}
	if !h.eng.PoolDegraded() {
		t.Fatal("PoolDegraded should be true")
	}
}
