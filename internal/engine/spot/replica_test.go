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
}

// wireReplicated builds an engine serving one instance whose region 0 is
// mirrored on nreps pool replicas (wirePools).
func wireReplicated(t *testing.T, nreps int, cfg Config) *repHarness {
	hosts := make([][]uint16, nreps)
	for r := range hosts {
		hosts[r] = []uint16{0}
	}
	return wirePools(t, cfg, hosts...)
}

// wirePools builds an engine serving one instance over len(hosts) pool
// nodes, node r hosting the 1 MiB regions hosts[r] lists, every QP on the
// NIC's default retry budget: each QP's RTO follows its own measured round
// trips, so a scheduler stall does not read as a dead replica, and a crashed
// one is declared dead within the retry budget's sum (DESIGN.md §9). Nodes beyond the first
// place their regions at a shifted base so the test exercises per-replica
// address translation, not just QP fan-out. The client addresses each
// region's first copy.
func wirePools(t *testing.T, cfg Config, hosts ...[]uint16) *repHarness {
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
	var reps []PoolReplica
	var poolNICs []*rdma.NIC
	registered := make(map[uint16]bool)
	for r, ids := range hosts {
		pool := memnode.New(f, wire.MAC{2, 0xAA, 4, 2, 0, byte(r)}, wire.IPv4Addr{10, 7, 4, 2 + byte(r)}, rdma.DefaultConfig())
		t.Cleanup(pool.Close)
		if r > 0 {
			// Skew this node's VA space so its regions sit at a different
			// base than the first node's copies.
			if _, err := pool.AllocRegion(99, 4096*(r+1)); err != nil {
				t.Fatal(err)
			}
		}
		var regions []core.RegionInfo
		for _, id := range ids {
			region, err := pool.AllocRegion(id, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if !registered[id] {
				client.RegisterRegion(region)
				registered[id] = true
			}
			regions = append(regions, region)
		}
		reps = append(reps, PoolReplica{Regions: regions})
		h.pools = append(h.pools, pool)
		poolNICs = append(poolNICs, pool.NIC())
	}
	ep := queueEndpoints(eng, compute, poolNICs...)
	if err := eng.Register(Registration{Instance: client.Describe(0), Pools: reps, Queues: []QueueEndpoints{ep}}); err != nil {
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
// the paced liveness READs notice a dead primary and fail over, so the first
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

// TestReplicatedOneWorker: the one worker of a Workers: 1 engine drives the
// mirroring, heartbeat, and failover machinery.
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

// TestPlacedHeartbeatCoversEveryPool: with each region placed on a pool of
// its own and no traffic at all, the paced liveness READs reach every pool —
// each reads a region that pool hosts — so the idle death of a pool that
// does not host region 0 is detected. It moves no READs: pool 1 was region
// 1's only home.
func TestPlacedHeartbeatCoversEveryPool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolHeartbeatInterval = time.Millisecond
	h := wirePools(t, cfg, []uint16{0}, []uint16{1})

	h.pools[1].Crash()
	deadline := time.Now().Add(3 * time.Second)
	for !h.eng.PoolDegraded() {
		if time.Now().After(deadline) {
			t.Fatalf("pool 1's death went undetected after %d heartbeats", h.eng.Stats().PoolHeartbeats)
		}
		time.Sleep(time.Millisecond)
	}
	if n := h.eng.Stats().PoolFailovers; n != 0 {
		t.Fatalf("PoolFailovers = %d, want 0 (no region's READs moved)", n)
	}
}

// TestInlineFencingNAKDemotes: a round with two writes, each mirrored on two
// replicas whose fence floor is above the engine's epoch, on a fabric that
// delivers inline. The first write's NAKs land inside its own posts, so the
// second write's posts are refused by QPs already in the error state. The
// refusal must read as the fencing verdict it is: the engine demotes itself,
// and no replica is declared dead, no read fails over and no compute path is
// retired.
func TestInlineFencingNAKDemotes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 100 * time.Millisecond // one cold probe collects both entries
	cfg.HeartbeatInterval = time.Minute
	h := wireReplicated(t, 2, cfg)
	for deadline := time.Now().Add(10 * time.Second); h.eng.Stats().Probes == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the engine never probed its new slot")
		}
		time.Sleep(time.Millisecond)
	}
	for _, pool := range h.pools {
		if err := pool.Fence(1); err != nil {
			t.Fatal(err)
		}
	}
	th, _ := h.client.Thread(0)
	data := bytes.Repeat([]byte{0x6E}, 64)
	for i := 0; i < 2; i++ {
		if _, err := th.AsyncWrite(0, data, uint64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); !h.eng.Fenced(); {
		if time.Now().After(deadline) {
			t.Fatalf("engine not fenced after its writes were NAKed: %+v", h.eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := h.eng.Stats()
	if h.eng.PoolDegraded() || st.PoolFailovers != 0 || st.ComputePathsDead != 0 {
		t.Fatalf("a fencing NAK was read as a death: degraded %v, %+v", h.eng.PoolDegraded(), st)
	}
	if st.EntriesServed != 0 {
		t.Fatalf("%d entries served past a fencing NAK", st.EntriesServed)
	}
}
