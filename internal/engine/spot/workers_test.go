package spot

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// sharedPoolHarness is an engine serving several single-queue instances that
// all map region 0 of ONE pool node, so one tenant's reads observe another
// tenant's writes — the pool is the shared clock the scheduling tests read.
type sharedPoolHarness struct {
	eng      *Engine
	computes []*rdma.NIC
	clients  []*core.Client
	eComp    []*rdma.QP
	eMem     []*rdma.QP
}

func wireSharedPool(t *testing.T, cfg Config, instances int) *sharedPoolHarness {
	t.Helper()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAC, 0, 0, 0, 1}, wire.IPv4Addr{10, 9, 0, 1}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	pool := memnode.New(f, wire.MAC{2, 0xAC, 2, 0, 0, 1}, wire.IPv4Addr{10, 9, 2, 1}, rdma.DefaultConfig())
	t.Cleanup(pool.Close)
	region, err := pool.AllocRegion(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h := &sharedPoolHarness{eng: New(engNIC, cfg)}
	t.Cleanup(h.eng.Stop)
	unused := rdma.NewCQ()
	for i := 0; i < instances; i++ {
		compute := rdma.NewNIC(f, wire.MAC{2, 0xAC, 1, 0, 0, byte(i)}, wire.IPv4Addr{10, 9, 1, byte(i)}, rdma.DefaultConfig())
		t.Cleanup(compute.Close)
		client, err := core.NewClient(compute, core.ClientConfig{
			Threads: 1,
			Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
			BaseVA:  0x10_0000,
		})
		if err != nil {
			t.Fatal(err)
		}
		client.RegisterRegion(region)
		psn := uint32(1000 + i*1000)
		eComp := engNIC.CreateQP(h.eng.CQ(), unused, psn)
		cQP := compute.CreateQP(rdma.NewCQ(), rdma.NewCQ(), psn+100)
		eComp.Connect(rdma.RemoteEndpoint{QPN: cQP.QPN(), MAC: compute.MAC(), IP: compute.IP()}, psn+100)
		cQP.Connect(rdma.RemoteEndpoint{QPN: eComp.QPN(), MAC: engNIC.MAC(), IP: engNIC.IP()}, psn)
		eMem := engNIC.CreateQP(h.eng.CQ(), unused, psn+200)
		mQP := pool.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), psn+300)
		eMem.Connect(rdma.RemoteEndpoint{QPN: mQP.QPN(), MAC: pool.NIC().MAC(), IP: pool.NIC().IP()}, psn+300)
		mQP.Connect(rdma.RemoteEndpoint{QPN: eMem.QPN(), MAC: engNIC.MAC(), IP: engNIC.IP()}, psn+200)
		h.computes = append(h.computes, compute)
		h.clients = append(h.clients, client)
		h.eComp = append(h.eComp, eComp)
		h.eMem = append(h.eMem, eMem)
		if err := h.eng.Register(onePool(client.Describe(i), eComp, eMem)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestQuantumSharesWorker is the noisy-neighbour assertion at engine level.
// Four queue sets on a Workers: 2 engine: tenants 0 and 2 share worker 0,
// tenants 1 and 3 worker 1. Tenant 0 queues a 48-write backlog, every write
// storing its sequence number at one pool address; tenant 2 queues a single
// read of that address; then the engine starts. What the read returns is how
// much of the backlog the worker served before it gave the light tenant its
// turn: with a quantum of 4 exactly 4 entries, whatever the host's timing —
// and without QoS the whole backlog (the control, which shows the test can
// fail).
func TestQuantumSharesWorker(t *testing.T) {
	const backlog, quantum = 48, 4
	for _, tc := range []struct {
		name string
		qos  bool
		want uint64
	}{{"quantum", true, quantum}, {"uncapped", false, backlog}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ProbeInterval = 2 * time.Microsecond
			cfg.Workers = 2
			h := wireSharedPool(t, cfg, 4)
			if w := h.eng.workers; len(w) != 2 || len(*w[0].slots.Load()) != 2 || len(*w[1].slots.Load()) != 2 {
				t.Fatalf("want 2 workers x 2 slots, have %d workers", len(w))
			}
			if tc.qos {
				for id := 0; id < 4; id++ {
					if !h.eng.SetTenantQoS(id, TenantQoS{Quantum: quantum}) {
						t.Fatalf("tenant %d not found", id)
					}
				}
			}
			heavy, _ := h.clients[0].Thread(0)
			light, _ := h.clients[2].Thread(0)
			var ids []core.ReqID
			for k := uint64(1); k <= backlog; k++ {
				id, err := heavy.AsyncWrite(0, binary.LittleEndian.AppendUint64(nil, k), 4096)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			seen := make([]byte, 8)
			rid, err := light.AsyncRead(0, 4096, seen)
			if err != nil {
				t.Fatal(err)
			}
			h.eng.Run()
			if !light.WaitAll([]core.ReqID{rid}, 10*time.Second) {
				t.Fatal("light tenant's read never completed")
			}
			if got := binary.LittleEndian.Uint64(seen); got != tc.want {
				t.Fatalf("light tenant served after %d backlog entries, want %d", got, tc.want)
			}
			if !heavy.WaitAll(ids, 10*time.Second) {
				t.Fatal("backlogged tenant never drained")
			}
			// The other worker's tenants are served throughout.
			other, _ := h.clients[1].Thread(0)
			if err := other.WriteSync(0, []byte("peer"), 8192, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailingSlotDoesNotStarveWorker: one of a worker's two slots loses its
// compute node, so every round on it blocks for OpTimeout and fails with
// errTimeout. The worker must keep serving its other slot in the same pass —
// a failure costs the peers one OpTimeout per pass, not their service — and
// must pick the failed slot up again once the node is back.
func TestFailingSlotDoesNotStarveWorker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.Workers = 1
	cfg.OpTimeout = 5 * time.Millisecond // well inside the QP's Go-Back-N budget: waits time out, QPs stay healthy
	h := wireSharedPool(t, cfg, 2)
	// A real outage, not a stall: no retry budget may expire in it, or there is no recovery to observe.
	h.eComp[0].SetRetryPolicy(2*time.Millisecond, 1_000_000)
	h.eng.Run()
	sick, _ := h.clients[0].Thread(0)
	well, _ := h.clients[1].Thread(0)
	if err := sick.WriteSync(0, []byte("before"), 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	h.computes[0].SetDead(true)
	stuck, err := sick.AsyncWrite(0, []byte("during"), 0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5E}, 64)
	dest := make([]byte, len(data))
	for k := 0; k < 20; k++ {
		start := time.Now()
		if err := well.WriteSync(0, data, 4096, 10*time.Second); err != nil {
			t.Fatalf("healthy slot write %d: %v", k, err)
		}
		if err := well.ReadSync(0, 4096, dest, 10*time.Second); err != nil {
			t.Fatalf("healthy slot read %d: %v", k, err)
		}
		// Two ops, each picked up within a pass that carries at most the
		// sick slot's one timeout; the bound is loose for loaded CI hosts.
		if el := time.Since(start); el > 100*cfg.OpTimeout {
			t.Fatalf("healthy slot op pair %d took %v next to a failing slot (OpTimeout %v)", k, el, cfg.OpTimeout)
		}
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("healthy slot read back wrong data")
	}
	if sick.Completed(stuck) {
		t.Fatal("op completed on a dead compute node")
	}

	h.computes[0].SetDead(false)
	if !sick.WaitAll([]core.ReqID{stuck}, 10*time.Second) {
		t.Fatal("failed slot was never served again after its node came back")
	}
}

// TestDeadComputeQPRetiresSlot is the regression test for the silent spin: a
// compute-side QP that exhausts its retries is errored for good, and the
// worker used to re-probe that slot at ProbeInterval forever, every post
// refused, nothing served and nothing reported. Two instances share the one
// worker; instance 0's compute QP is given a retry budget a brief outage
// exhausts. The slot must be retired and counted, the peer served throughout,
// the engine must go quiet on the dead QP even though the node is back, and
// re-adopting the instance over fresh QPs must serve it again — including the
// write it had queued when the path died.
func TestDeadComputeQPRetiresSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.IdleQueueProbeInterval = 20 * time.Millisecond // an idle live slot backs off to ~50 probes/s
	cfg.Workers = 1
	h := wireSharedPool(t, cfg, 2)
	h.eComp[0].SetRetryPolicy(200*time.Microsecond, 2)
	h.eng.Run()
	sick, _ := h.clients[0].Thread(0)
	well, _ := h.clients[1].Thread(0)
	if err := sick.WriteSync(0, []byte("before"), 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	h.computes[0].SetDead(true)
	queued, err := sick.AsyncWrite(0, []byte("queued"), 0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5E}, 64)
	dest := make([]byte, len(data))
	for deadline := time.Now().Add(10 * time.Second); h.eng.Stats().ComputePathsDead == 0; {
		if time.Now().After(deadline) {
			t.Fatal("dead compute QP never reported")
		}
		if err := well.WriteSync(0, data, 4096, 10*time.Second); err != nil {
			t.Fatalf("peer write next to the dying slot: %v", err)
		}
	}
	h.computes[0].SetDead(false) // the node is back; its QP is not

	// Let the peer's idle backoff saturate, then watch the probe counter: the
	// retired slot contributes nothing, the idle peer a handful. The old loop
	// added a refused probe per pass — tens of thousands a second.
	time.Sleep(100 * time.Millisecond)
	p0 := h.eng.Stats().Probes
	time.Sleep(100 * time.Millisecond)
	if dp := h.eng.Stats().Probes - p0; dp > 20 {
		t.Fatalf("%d probes in 100 ms with one slot dead and the other idle", dp)
	}
	if err := well.ReadSync(0, 4096, dest, 10*time.Second); err != nil || !bytes.Equal(dest, data) {
		t.Fatalf("peer read after the slot died: %q, %v", dest, err)
	}
	if n := h.eng.Stats().ComputePathsDead; n != 1 {
		t.Fatalf("ComputePathsDead = %d, want 1", n)
	}
	if sick.Completed(queued) {
		t.Fatal("op completed over a dead compute QP")
	}

	// Recovery is migration onto itself: drop the instance, adopt it over a
	// fresh compute QP (its pool QP never failed).
	if !h.eng.RemoveInstance(0) {
		t.Fatal("instance 0 not registered")
	}
	engNIC, compute := h.eng.NIC(), h.computes[0]
	eComp := engNIC.CreateQP(h.eng.CQ(), rdma.NewCQ(), 50_000)
	cQP := compute.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 50_100)
	eComp.Connect(rdma.RemoteEndpoint{QPN: cQP.QPN(), MAC: compute.MAC(), IP: compute.IP()}, 50_100)
	cQP.Connect(rdma.RemoteEndpoint{QPN: eComp.QPN(), MAC: engNIC.MAC(), IP: engNIC.IP()}, 50_000)
	adopt := onePool(h.clients[0].Describe(0), eComp, h.eMem[0])
	adopt.Adopt = true
	if err := h.eng.Register(adopt); err != nil {
		t.Fatal(err)
	}
	if !sick.WaitAll([]core.ReqID{queued}, 10*time.Second) {
		t.Fatal("queued write not served after re-adoption")
	}
	got := make([]byte, 6)
	if err := sick.ReadSync(0, 0, got, 10*time.Second); err != nil || string(got) != "queued" {
		t.Fatalf("re-adopted instance read %q, %v", got, err)
	}
	if n := h.eng.Stats().ComputePathsDead; n != 1 {
		t.Fatalf("ComputePathsDead = %d after recovery, want 1", n)
	}
}

// TestShardReuseAcrossMigrations is the regression test for the shard leak:
// on a Workers: 0 engine every adopted queue set gets a dedicated worker and
// every removal retires one, and the NIC cannot deregister an MR — so the
// retired worker's shard must be reused, or migrate-in/migrate-out cycles
// grow the routing table, the arenas and the MR table without bound.
func TestShardReuseAcrossMigrations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.StagingBytes = 64 << 10
	h := wireSharedPool(t, cfg, 2)
	h.eng.Run()
	nic := h.eng.NIC()
	th, _ := h.clients[1].Thread(0)

	shards := len(h.eng.shardList())
	key0 := nic.RegisterMR(0x6000_0000, make([]byte, 8)).RKey
	const cycles = 200
	adopt := onePool(h.clients[1].Describe(1), h.eComp[1], h.eMem[1])
	adopt.Adopt = true
	for c := 0; c < cycles; c++ {
		if !h.eng.RemoveInstance(1) {
			t.Fatalf("cycle %d: instance 1 not registered", c)
		}
		if err := h.eng.Register(adopt); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c%20 == 0 { // the reused shard serves
			if err := th.WriteSync(0, []byte{byte(c)}, 128, 10*time.Second); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	key1 := nic.RegisterMR(0x6000_1000, make([]byte, 8)).RKey
	if got := len(h.eng.shardList()); got != shards {
		t.Fatalf("%d shards after %d remove/adopt cycles, started with %d", got, cycles, shards)
	}
	// The NIC hands out two keys per registration; nothing but the test's
	// own second MR may have been registered in between.
	if mrs := (key1 - key0) / 2; mrs != 1 {
		t.Fatalf("%d MRs registered during %d remove/adopt cycles, want only the test's own", mrs, cycles)
	}
	if len(h.eng.workers) != 2 || len(h.eng.free) != 0 {
		t.Fatalf("%d workers, %d free shards; want 2 and 0", len(h.eng.workers), len(h.eng.free))
	}
}
