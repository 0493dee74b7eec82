package spot

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// wireInstanceLayout is wireInstance with a caller-chosen ring geometry and
// thread count, for tests that need a tiny metadata ring or several queues.
func wireInstanceLayout(t *testing.T, f *rdma.Fabric, eng *Engine, i, threads int, lay rings.Layout) (*core.Client, *memnode.Node) {
	t.Helper()
	client, pool, _ := wireInstanceNIC(t, f, eng, i, threads, lay)
	return client, pool
}

// wireInstanceNIC is wireInstanceLayout that also hands back the compute
// node's NIC, for tests that drop its frames or wire it a second QP.
func wireInstanceNIC(t *testing.T, f *rdma.Fabric, eng *Engine, i, threads int, lay rings.Layout) (*core.Client, *memnode.Node, *rdma.NIC) {
	t.Helper()
	compute := rdma.NewNIC(f, wire.MAC{2, 0xAA, 1, 0, 0, byte(i)}, wire.IPv4Addr{10, 7, 1, byte(i)}, rdma.DefaultConfig())
	t.Cleanup(compute.Close)
	pool := memnode.New(f, wire.MAC{2, 0xAA, 2, 0, 0, byte(i)}, wire.IPv4Addr{10, 7, 2, byte(i)}, rdma.DefaultConfig())
	t.Cleanup(pool.Close)
	client, err := core.NewClient(compute, core.ClientConfig{Threads: threads, Layout: lay, BaseVA: 0x10_0000})
	if err != nil {
		t.Fatal(err)
	}
	region, err := pool.AllocRegion(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	client.RegisterRegion(region)

	unused := rdma.NewCQ()
	eComp := eng.NIC().CreateQP(eng.CQ(), unused, uint32(1000+i*100))
	cQP := compute.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 2000)
	eComp.Connect(rdma.RemoteEndpoint{QPN: cQP.QPN(), MAC: compute.MAC(), IP: compute.IP()}, 2000)
	cQP.Connect(rdma.RemoteEndpoint{QPN: eComp.QPN(), MAC: eng.NIC().MAC(), IP: eng.NIC().IP()}, uint32(1000+i*100))

	eMem := eng.NIC().CreateQP(eng.CQ(), unused, uint32(3000+i*100))
	mQP := pool.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), 4000)
	eMem.Connect(rdma.RemoteEndpoint{QPN: mQP.QPN(), MAC: pool.NIC().MAC(), IP: pool.NIC().IP()}, 4000)
	mQP.Connect(rdma.RemoteEndpoint{QPN: eMem.QPN(), MAC: eng.NIC().MAC(), IP: eng.NIC().IP()}, uint32(3000+i*100))

	if err := eng.Register(onePool(client.Describe(i), eComp, eMem)); err != nil {
		t.Fatal(err)
	}
	return client, pool, compute
}

// TestMetaRingWrapFetch drives the metadata ring across its wrap boundary
// and serves the straddling batch, exercising serveQueue's two-read fetch
// path. The engine is never Run: rounds are invoked directly on the control
// shard, so the test controls exactly which entries each fetch covers.
func TestMetaRingWrapFetch(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 6}, wire.IPv4Addr{10, 7, 0, 6}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	eng := New(engNIC, DefaultConfig())
	t.Cleanup(eng.Stop) // the demux runs from New even without Run

	const metaEntries = 8
	lay := rings.Layout{MetaEntries: metaEntries, ReqDataBytes: 8 << 10, RespDataBytes: 8 << 10}
	client, pool := wireInstanceLayout(t, f, eng, 0, 1, lay)

	inst := eng.insts.Load().instances[0]
	q := inst.queues[0]

	th, _ := client.Thread(0)

	// First round: 5 entries, head 0→5, a single contiguous fetch.
	var ids []core.ReqID
	for k := 0; k < 5; k++ {
		id, err := th.AsyncWrite(0, bytes.Repeat([]byte{byte(0xA0 + k)}, 64), uint64(k)*256)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	n, err := eng.serveQueue(eng.ctl, inst.shared, inst, q, eng.cfg.MaxEntriesPerRound)
	if err != nil || n != 5 {
		t.Fatalf("first round: served=%d err=%v", n, err)
	}
	if !th.WaitAll(ids, 10*time.Second) {
		t.Fatal("first round writes not harvested")
	}

	// Second round: 6 entries starting at head 5 of an 8-entry ring — the
	// fetch must wrap, i.e. split into two RDMA reads (slots 5..7, then
	// 0..2). Verify the precondition, then that every entry decoded and
	// executed correctly across the seam.
	if h0 := int(q.red.MetaHead % metaEntries); h0+6 <= metaEntries {
		t.Fatalf("test geometry broken: head slot %d + 6 entries does not wrap", h0)
	}
	ids = ids[:0]
	for k := 0; k < 6; k++ {
		id, err := th.AsyncWrite(0, bytes.Repeat([]byte{byte(0xB0 + k)}, 64), uint64(5+k)*256)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	n, err = eng.serveQueue(eng.ctl, inst.shared, inst, q, eng.cfg.MaxEntriesPerRound)
	if err != nil || n != 6 {
		t.Fatalf("wrap round: served=%d err=%v", n, err)
	}
	if !th.WaitAll(ids, 10*time.Second) {
		t.Fatal("wrap round writes not harvested")
	}
	if q.red.MetaHead != 11 {
		t.Fatalf("MetaHead = %d, want 11", q.red.MetaHead)
	}
	for k := 0; k < 5; k++ {
		got, err := pool.Peek(0, uint64(k)*256, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0xA0+k) {
			t.Fatalf("pre-wrap entry %d: pool byte %#x", k, got[0])
		}
	}
	for k := 0; k < 6; k++ {
		got, err := pool.Peek(0, uint64(5+k)*256, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0xB0+k) {
			t.Fatalf("wrapped entry %d: pool byte %#x", k, got[0])
		}
	}
}

// TestConcurrentQueuesUnderLoss exercises dedicated workers end to end:
// four queue sets served by four workers concurrently, with frame loss
// injected into the fabric so Go-Back-N recovery interleaves with normal
// rounds. Run under -race this is the main memory-safety check for the
// worker/demux split. The exact stats assertions double as an
// exactly-once check across shards.
func TestConcurrentQueuesUnderLoss(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 5}, wire.IPv4Addr{10, 7, 0, 5}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	eng := New(engNIC, cfg)

	const threads = 4
	lay := rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10}
	client, _ := wireInstanceLayout(t, f, eng, 0, threads, lay)

	var lossMu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	f.SetLossFn(func([]byte) bool {
		lossMu.Lock()
		defer lossMu.Unlock()
		return rng.Intn(100) < 2
	})

	eng.Run()
	t.Cleanup(eng.Stop)

	const opsPerThread = 25
	errCh := make(chan error, threads)
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th, err := client.Thread(ti)
			if err != nil {
				errCh <- err
				return
			}
			base := uint64(ti) * 0x40000
			for i := 0; i < opsPerThread; i++ {
				data := bytes.Repeat([]byte{byte(ti*opsPerThread + i)}, 64)
				addr := base + uint64(i)*512
				if err := th.WriteSync(0, data, addr, 20*time.Second); err != nil {
					errCh <- fmt.Errorf("thread %d write %d: %w", ti, i, err)
					return
				}
				dest := make([]byte, 64)
				if err := th.ReadSync(0, addr, dest, 20*time.Second); err != nil {
					errCh <- fmt.Errorf("thread %d read %d: %w", ti, i, err)
					return
				}
				if !bytes.Equal(dest, data) {
					errCh <- fmt.Errorf("thread %d op %d: data mismatch", ti, i)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := eng.Stats()
	want := int64(threads * opsPerThread)
	if st.ReadsExecuted != want || st.WritesExecuted != want {
		t.Fatalf("reads=%d writes=%d, want %d each (exactly-once across shards): %+v",
			st.ReadsExecuted, st.WritesExecuted, want, st)
	}
	if st.EntriesServed != 2*want {
		t.Fatalf("entries=%d, want %d: %+v", st.EntriesServed, 2*want, st)
	}
}

// TestRegisterWhileRunning checks that a queue registered after Run gets
// a live worker: a Workers: 0 engine spawns dedicated workers dynamically
// rather than snapshotting its instance list at startup.
func TestRegisterWhileRunning(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 4}, wire.IPv4Addr{10, 7, 0, 4}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	eng := New(engNIC, cfg)

	c0, _ := wireInstance(t, f, eng, 0)
	eng.Run()
	t.Cleanup(eng.Stop)

	th0, _ := c0.Thread(0)
	if err := th0.WriteSync(0, []byte("before"), 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Second instance arrives on a running engine.
	c1, p1 := wireInstance(t, f, eng, 1)
	th1, _ := c1.Thread(0)
	data := bytes.Repeat([]byte{0x42}, 96)
	if err := th1.WriteSync(0, data, 4096, 10*time.Second); err != nil {
		t.Fatalf("write on live-added instance: %v", err)
	}
	dest := make([]byte, 96)
	if err := th1.ReadSync(0, 4096, dest, 10*time.Second); err != nil {
		t.Fatalf("read on live-added instance: %v", err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("live-added instance returned wrong data")
	}
	if got, err := p1.Peek(0, 4096, 1); err != nil || got[0] != 0x42 {
		t.Fatalf("pool state: %v %v", got, err)
	}
}

// TestOneWorkerServesAll runs a Workers: 1 engine end to end: both
// instances share the single pinned worker, and the second is added after
// Run, so the running worker must pick the new slot up from its
// copy-on-write list on a later pass.
func TestOneWorkerServesAll(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 3}, wire.IPv4Addr{10, 7, 0, 3}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.Workers = 1
	eng := New(engNIC, cfg)

	c0, _ := wireInstance(t, f, eng, 0)
	eng.Run()
	t.Cleanup(eng.Stop)

	c1, _ := wireInstance(t, f, eng, 1) // added after Run
	if len(eng.workers) != 1 || len(*eng.workers[0].slots.Load()) != 2 {
		t.Fatalf("%d workers, want the one pinned worker holding both slots", len(eng.workers))
	}
	for i, c := range []*core.Client{c0, c1} {
		th, _ := c.Thread(0)
		data := bytes.Repeat([]byte{byte(0x60 + i)}, 128)
		if err := th.WriteSync(0, data, 1024, 10*time.Second); err != nil {
			t.Fatalf("instance %d write: %v", i, err)
		}
		dest := make([]byte, 128)
		if err := th.ReadSync(0, 1024, dest, 10*time.Second); err != nil {
			t.Fatalf("instance %d read: %v", i, err)
		}
		if !bytes.Equal(dest, data) {
			t.Fatalf("instance %d data mismatch", i)
		}
	}
	if st := eng.Stats(); st.EntriesServed != 4 {
		t.Fatalf("stats: %+v", st)
	}
}
