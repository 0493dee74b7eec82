package ha

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// fencedRig is the split-brain deployment (DESIGN.md §14): one compute node,
// TWO pool replicas, a primary engine bound at fencing epoch 1, a standby
// registered with every fencer, and a Partition installed as the fabric's
// loss predicate so tests can isolate the primary without killing it.
type fencedRig struct {
	f       *rdma.Fabric
	part    *rdma.Partition
	client  *core.Client
	pools   [2]*memnode.Node
	primary *spot.Engine
	standby *Standby
	monitor *Monitor

	computeMAC wire.MAC
	primaryMAC wire.MAC
}

// buildFencedRig wires the deployment above. The primary's QPs get a retry
// budget far longer than any partition a test installs, so its in-flight
// writes survive as Go-Back-N retransmissions and are still flying when the
// partition heals — the zombie scenario, not the crash scenario.
func buildFencedRig(t *testing.T) *fencedRig {
	t.Helper()
	ecfg, _ := testTimings()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	part := rdma.NewPartition()
	f.SetLossFn(part.Drops)

	computeNIC := rdma.NewNIC(f, wire.MAC{2, 0xFB, 0, 0, 0, 1}, wire.IPv4Addr{10, 9, 0, 1}, rdma.DefaultConfig())
	t.Cleanup(computeNIC.Close)
	primaryNIC := rdma.NewNIC(f, wire.MAC{2, 0xFB, 0, 0, 0, 4}, wire.IPv4Addr{10, 9, 0, 4}, rdma.DefaultConfig())
	t.Cleanup(primaryNIC.Close)
	standbyNIC := rdma.NewNIC(f, wire.MAC{2, 0xFB, 0, 0, 0, 5}, wire.IPv4Addr{10, 9, 0, 5}, rdma.DefaultConfig())
	t.Cleanup(standbyNIC.Close)

	client, err := core.NewClient(computeNIC, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	if err != nil {
		t.Fatal(err)
	}

	r := &fencedRig{f: f, part: part, client: client, computeMAC: computeNIC.MAC(), primaryMAC: primaryNIC.MAC()}
	primary := spot.New(primaryNIC, ecfg)
	primary.SetFenceEpoch(1)
	standbyEng := spot.New(standbyNIC, ecfg)
	st := NewStandby(standbyEng)

	connect := func(eng *spot.Engine, peer *rdma.NIC, engPSN, peerPSN uint32) *rdma.QP {
		eQP := eng.NIC().CreateQP(eng.CQ(), rdma.NewCQ(), engPSN)
		pQP := peer.CreateQP(rdma.NewCQ(), rdma.NewCQ(), peerPSN)
		eQP.Connect(rdma.RemoteEndpoint{QPN: pQP.QPN(), MAC: peer.MAC(), IP: peer.IP()}, peerPSN)
		pQP.Connect(rdma.RemoteEndpoint{QPN: eQP.QPN(), MAC: eng.NIC().MAC(), IP: eng.NIC().IP()}, engPSN)
		return eQP
	}

	var pReps, sReps []spot.PoolReplica
	for i := 0; i < 2; i++ {
		pool := memnode.New(f, wire.MAC{2, 0xFB, 0, 0, 0, byte(2 + i)}, wire.IPv4Addr{10, 9, 0, byte(2 + i)}, rdma.DefaultConfig())
		t.Cleanup(pool.Close)
		if i > 0 {
			// Skew replica 1's VA space so region 0 sits at a different base:
			// scrub and repair must translate per replica, not reuse addresses.
			if _, err := pool.AllocRegion(99, 8192); err != nil {
				t.Fatal(err)
			}
		}
		region, err := pool.AllocRegion(0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			client.RegisterRegion(region)
		}
		pQP := connect(primary, pool.NIC(), uint32(3000+i*200), uint32(3100+i*200))
		pQP.SetRetryPolicy(time.Millisecond, 30_000) // a partition is a real outage; the zombie's writes must outlive it
		pReps = append(pReps, spot.PoolReplica{QP: pQP, Regions: []core.RegionInfo{region}})
		sReps = append(sReps, spot.PoolReplica{QP: connect(standbyEng, pool.NIC(), uint32(4000+i*200), uint32(4100+i*200)), Regions: []core.RegionInfo{region}})
		r.pools[i] = pool
		st.RegisterFencer(pool)
	}
	st.RegisterFencer(client)

	// Bind at epoch 1: from here on only epoch-holders land writes anywhere.
	for _, pool := range r.pools {
		if err := pool.Fence(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Fence(1); err != nil {
		t.Fatal(err)
	}

	pComp := connect(primary, computeNIC, 1000, 1100)
	pComp.SetRetryPolicy(time.Millisecond, 30_000) // likewise: the zombie must still be serving when the partition heals
	if err := primary.Register(spot.Registration{Instance: client.Describe(1), ComputeQP: pComp, Pools: pReps}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Stop)

	if err := st.Register(spot.Registration{Instance: client.Describe(1), ComputeQP: connect(standbyEng, computeNIC, 2000, 2100), Pools: sReps}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(standbyEng.Stop)

	mon := NewMonitor(client, MonitorConfig{Interval: 2 * time.Millisecond, LeaseTimeout: 30 * time.Millisecond})
	mon.OnDeath(func() { _ = st.Promote() })
	r.primary, r.standby, r.monitor = primary, st, mon
	return r
}

// isolatePrimary severs the primary from the compute node and both pools —
// both directions, every peer — without stopping its engine: the canonical
// split-brain. The primary keeps serving into the void.
func (r *fencedRig) isolatePrimary() {
	r.part.Block(r.primaryMAC, r.computeMAC)
	for _, p := range r.pools {
		r.part.Block(r.primaryMAC, p.NIC().MAC())
	}
}

// TestZombiePrimaryFenced is the split-brain regression the tentpole exists
// for: partition the primary (do NOT kill it), let the monitor promote the
// standby, heal the partition, and prove the write-durability invariant —
// every acknowledged write survives at every replica, no byte from the
// fenced writer ever lands, and the zombie demotes itself the moment its
// first retransmission reaches a fenced peer.
func TestZombiePrimaryFenced(t *testing.T) {
	r := buildFencedRig(t)
	r.primary.Run()
	r.monitor.Start()
	t.Cleanup(r.monitor.Stop)

	th, err := r.client.Thread(0)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Repeat([]byte{0xB1}, 64)
	if err := th.WriteSync(0, before, 128, 10*time.Second); err != nil {
		t.Fatalf("write on primary: %v", err)
	}

	// Split brain: the primary is alive behind the partition, its heartbeat
	// and probe WRs retransmitting into the void at stale epoch 1.
	r.isolatePrimary()

	// A write issued during the partition: the zombie can never fetch it, so
	// it must complete — exactly once — on the promoted standby.
	during := bytes.Repeat([]byte{0xD2}, 64)
	inflight, err := th.AsyncWrite(0, during, 4096)
	if err != nil {
		t.Fatal(err)
	}
	g := th.PollCreate()
	if err := g.Add(inflight); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "death detection", 10*time.Second, func() bool { return r.monitor.Deaths() == 1 })
	waitFor(t, "standby promotion", 10*time.Second, r.standby.Promoted)

	// Promotion bumped the epoch at EVERY replica and at the compute node
	// before the standby served a single request.
	if got := r.standby.Epoch(); got != 2 {
		t.Fatalf("standby epoch %d after promotion, want 2", got)
	}
	for i, pool := range r.pools {
		if got := pool.FenceEpoch(); got != 2 {
			t.Fatalf("pool %d epoch %d after promotion, want 2", i, got)
		}
	}
	if got := r.client.FenceEpoch(); got != 2 {
		t.Fatalf("client epoch %d after promotion, want 2", got)
	}

	waitFor(t, "in-flight write completion on standby", 10*time.Second, func() bool {
		ids, err := g.WaitErr(1, 20*time.Millisecond)
		return err == nil && len(ids) == 1 && ids[0] == inflight
	})
	waitFor(t, "lease recovery", 10*time.Second, r.monitor.Alive)

	// The zombie cannot have learned of its demotion yet: no fenced NAK can
	// cross the partition.
	if r.primary.Fenced() {
		t.Fatal("primary fenced before the partition healed")
	}

	// Heal. The zombie's retransmissions now reach epoch-2 floors, NAK with
	// the stale-epoch syndrome, and demote it — detection needs no timeout,
	// no monitor, no cooperation from the zombie.
	r.part.HealAll()
	waitFor(t, "zombie self-demotion", 10*time.Second, r.primary.Fenced)

	after := bytes.Repeat([]byte{0xA3}, 64)
	if err := th.WriteSync(0, after, 8192, 10*time.Second); err != nil {
		t.Fatalf("write on standby after heal: %v", err)
	}

	// Write-durability invariant: every acknowledged write present at every
	// replica, bit-exact.
	for i, pool := range r.pools {
		for _, w := range []struct {
			off  uint64
			want []byte
		}{{128, before}, {4096, during}, {8192, after}} {
			got, err := pool.Peek(0, w.off, len(w.want))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, w.want) {
				t.Fatalf("pool %d @%d: acknowledged write lost or overwritten (got %x... want %x...)", i, w.off, got[:4], w.want[:4])
			}
		}
	}

	// A scrub pass over the healed deployment finds zero divergence — the
	// fenced writer never landed a byte anywhere — and the replicas are
	// byte-identical end to end.
	if err := r.standby.Engine().ScrubPass(); err != nil {
		t.Fatal(err)
	}
	if st := r.standby.Engine().Stats(); st.ScrubDivergent != 0 {
		t.Fatalf("scrub found %d divergent chunks after a fenced split-brain, want 0", st.ScrubDivergent)
	}
	a, err := r.pools[0].Peek(0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.pools[1].Peek(0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replicas diverge at byte %d: %#x vs %#x", i, a[i], b[i])
			}
		}
	}
}

// TestScrubRepairsDivergence: corrupt one replica behind the engine's back
// (a lost mirror write, a bit flip — anything the datapath cannot see) and
// prove one scrub pass detects the divergent chunk and rewrites it from the
// primary, converging the replicas, with the counters accounting for it.
func TestScrubRepairsDivergence(t *testing.T) {
	r := buildFencedRig(t)
	r.primary.Run()

	th, err := r.client.Thread(0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x7E}, 512)
	if err := th.WriteSync(0, data, 4096, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Corrupt replica 1 out-of-band.
	if err := r.pools[1].Poke(0, 4096, bytes.Repeat([]byte{0xBD}, 512)); err != nil {
		t.Fatal(err)
	}

	if err := r.primary.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	st := r.primary.Stats()
	if st.ScrubDivergent < 1 || st.ScrubRepairs < 1 {
		t.Fatalf("scrub stats after corruption: divergent=%d repairs=%d, want >=1 each", st.ScrubDivergent, st.ScrubRepairs)
	}
	got, err := r.pools[1].Peek(0, 4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replica 1 still corrupt after scrub repair")
	}

	// A clean second pass: no new divergence, no new repairs.
	if err := r.primary.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	if st2 := r.primary.Stats(); st2.ScrubRepairs != st.ScrubRepairs {
		t.Fatalf("clean pass repaired %d more chunks", st2.ScrubRepairs-st.ScrubRepairs)
	}
}

// fakeFencer scripts Fence outcomes for the promotion edge cases.
type fakeFencer struct {
	epoch  uint16
	err    error
	fenced []uint16
}

func (f *fakeFencer) Fence(e uint16) error {
	if f.err != nil {
		return f.err
	}
	f.fenced = append(f.fenced, e)
	return nil
}
func (f *fakeFencer) FenceEpoch() uint16 { return f.epoch }

// TestPromoteFencerEdgeCases pins the two non-happy fencing outcomes:
// an UNREACHABLE fencer (plain error) is skipped — it can accept writes
// from no one, so promotion proceeds — while a fencer that reports this
// promotion STALE (core.ErrFenced: someone promoted with a newer epoch
// already) aborts it, and the outcome is sticky across repeat calls.
func TestPromoteFencerEdgeCases(t *testing.T) {
	t.Run("unreachable fencer skipped", func(t *testing.T) {
		eng := spot.New(rdma.NewNIC(rdma.NewFabric(), wire.MAC{2, 0xFC, 0, 0, 0, 1}, wire.IPv4Addr{10, 10, 0, 1}, rdma.DefaultConfig()), spot.DefaultConfig())
		t.Cleanup(eng.Stop)
		st := NewStandby(eng)
		alive := &fakeFencer{epoch: 4}
		st.RegisterFencer(alive)
		st.RegisterFencer(&fakeFencer{err: fmt.Errorf("no route to host")})
		if err := st.Promote(); err != nil {
			t.Fatalf("promotion with one unreachable fencer failed: %v", err)
		}
		// New epoch is one past the highest visible epoch, pushed to the
		// reachable fencer.
		if got := st.Epoch(); got != 5 {
			t.Fatalf("epoch %d, want 5", got)
		}
		if len(alive.fenced) != 1 || alive.fenced[0] != 5 {
			t.Fatalf("reachable fencer saw %v, want [5]", alive.fenced)
		}
	})

	t.Run("superseded promotion aborts", func(t *testing.T) {
		eng := spot.New(rdma.NewNIC(rdma.NewFabric(), wire.MAC{2, 0xFC, 0, 0, 0, 2}, wire.IPv4Addr{10, 10, 0, 2}, rdma.DefaultConfig()), spot.DefaultConfig())
		t.Cleanup(eng.Stop)
		st := NewStandby(eng)
		st.RegisterFencer(&fakeFencer{err: fmt.Errorf("floor is ahead: %w", core.ErrFenced)})
		err := st.Promote()
		if !errors.Is(err, core.ErrFenced) {
			t.Fatalf("superseded Promote = %v, want core.ErrFenced", err)
		}
		// Sticky: the standby must not retry its way into serving.
		if err2 := st.Promote(); !errors.Is(err2, core.ErrFenced) {
			t.Fatalf("repeat Promote = %v, want the original core.ErrFenced", err2)
		}
	})
}
