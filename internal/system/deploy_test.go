package system

import (
	"bytes"
	"testing"
	"time"

	"cowbird/internal/chaos"
	"cowbird/internal/engine/spot"
	"cowbird/internal/rdma"
)

const ioTimeout = 10 * time.Second

// qpsOn counts the QPs created on nic so far: a NIC numbers its QPs
// sequentially, so one more CreateQP, measured against the first QPN of a
// fresh NIC, tells.
func qpsOn(t *testing.T, nic *rdma.NIC) int {
	t.Helper()
	f := rdma.NewFabric()
	defer f.Close()
	fresh := rdma.NewNIC(f, nic.MAC(), nic.IP(), nic.Config())
	defer fresh.Close()
	first := fresh.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 0).QPN()
	return int(nic.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 0).QPN() - first)
}

// TestWiringShape pins what the one builder wires for each shape: how many
// QPs land on every NIC role, where the fencing epoch is bound, and whether
// QoS state rides along.
func TestWiringShape(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		workers               int
		unfenced              bool
		engine, compute, pool int
		epoch                 uint16
	}{
		// 3 instance-wide QPs (compute + 2 pools) and, for dedicated
		// workers, 3 more per queue set.
		{"dedicated workers", 0, false, 9, 3, 3, 1},
		{"dedicated workers unfenced", 0, true, 9, 3, 3, 0},
		{"one pinned worker", 1, false, 3, 1, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startSystem(t, func(c *Config) {
				c.Threads = 2
				c.PoolReplicas = 2
				c.Spot.Workers = tc.workers
				c.DisableFencing = tc.unfenced
			})
			if got := qpsOn(t, s.Spot.NIC()); got != tc.engine {
				t.Errorf("%d QPs on the engine NIC, want %d", got, tc.engine)
			}
			if got := qpsOn(t, s.Compute); got != tc.compute {
				t.Errorf("%d QPs on the compute NIC, want %d", got, tc.compute)
			}
			for r, p := range s.Pools {
				if got := qpsOn(t, p.NIC()); got != tc.pool {
					t.Errorf("%d QPs on pool %d, want %d", got, r, tc.pool)
				}
				if got := p.FenceEpoch(); got != tc.epoch {
					t.Errorf("pool %d at fence epoch %d, want %d", r, got, tc.epoch)
				}
			}
			if got := s.Client.FenceEpoch(); got != tc.epoch {
				t.Errorf("client at fence epoch %d, want %d", got, tc.epoch)
			}
			ten := s.d.tenants[0]
			if ten.homes != nil || ten.qos != nil || ten.Engine() != 0 {
				t.Errorf("system tenant: homes %v, qos %v, engine %d; want mirrored, none, 0", ten.homes, ten.qos, ten.Engine())
			}
			// The wiring serves, at the bound epoch, on every replica.
			th, _ := s.Client.Thread(1)
			data := bytes.Repeat([]byte{0x5A}, 64)
			if err := th.WriteSync(0, data, 4096, ioTimeout); err != nil {
				t.Fatal(err)
			}
			for r, p := range s.Pools {
				if got, err := p.Peek(s.Region.ID, 4096, 64); err != nil || !bytes.Equal(got, data) {
					t.Errorf("pool %d after the write: %x, %v", r, got[:4], err)
				}
			}
		})
	}

	t.Run("fleet tenant", func(t *testing.T) {
		f, err := NewFleet(DefaultFleetConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		var before []int
		for _, eng := range f.d.engines {
			before = append(before, qpsOn(t, eng.NIC()))
		}
		ten, err := f.AddTenant(7)
		if err != nil {
			t.Fatal(err)
		}
		// One more QP was made on every engine NIC by the count above; the
		// owner additionally got the tenant's 3 (compute + one per stripe).
		for e, eng := range f.d.engines {
			want := before[e] + 1
			if e == ten.Engine() {
				want += 3
			}
			if got := qpsOn(t, eng.NIC()); got != want {
				t.Errorf("%d QPs on engine %d's NIC, want %d", got, e, want)
			}
		}
		if got := qpsOn(t, ten.nic); got != 1 {
			t.Errorf("%d QPs on the tenant NIC, want 1", got)
		}
		for m := range f.d.memnodes {
			if got := f.Memnode(m).FenceEpoch(); got != 0 {
				t.Errorf("memnode %d at fence epoch %d, want 0", m, got)
			}
		}
		if got := ten.Client.FenceEpoch(); got != 0 {
			t.Errorf("tenant client at fence epoch %d, want 0", got)
		}
		if len(ten.homes) != 2 || len(ten.slots) != 2 {
			t.Errorf("fleet tenant: homes %v over %d slots, want 2 single-homed stripes", ten.homes, len(ten.slots))
		}
		if ten.qos == nil || *ten.qos != (spot.TenantQoS{}) {
			t.Errorf("fleet tenant carries QoS %v, want the zero value installed", ten.qos)
		}
		fleetRW(t, ten, 1, 0, 0x77)
	})
}

// TestFleetOfOneEquivalence runs the same seeded workload against a default
// System and against the one tenant of a 1-engine, 1-memnode, 1-stripe
// fleet: the builder wires both, so both must pass the chaos invariants,
// leave byte-identical pool images and serve the same entries.
func TestFleetOfOneEquivalence(t *testing.T) {
	const seed = 20
	wl := chaos.DefaultWorkloadConfig()
	size := wl.Slots * wl.SlotSize

	s := startSystem(t, nil)
	th, _ := s.Client.Thread(0)
	if err := chaos.RunWorkload(th, seed, wl); err != nil {
		t.Fatalf("system: %v", err)
	}
	sysImage, err := s.Pool.Peek(s.Region.ID, 0, size)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultFleetConfig()
	cfg.Engines = 1
	cfg.Memnodes = 1
	cfg.StripesPerTenant = 1
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ten, err := f.AddTenant(0)
	if err != nil {
		t.Fatal(err)
	}
	if ten.homes != nil {
		t.Fatalf("one stripe on one memnode registered with homes %v, want the mirrored model", ten.homes)
	}
	fth, _ := ten.Client.Thread(0)
	if err := chaos.RunWorkload(fth, seed, wl); err != nil {
		t.Fatalf("fleet of one: %v", err)
	}
	ext := ten.Extents()[0]
	fleetImage, err := f.Memnode(ext.Memnode).Peek(ext.NodeRegionID, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sysImage, fleetImage) {
		t.Fatal("pool images differ between the System and the fleet of one")
	}
	eng, _ := f.EngineOf(0)
	a, b := s.Spot.Stats(), eng.Stats()
	if a.EntriesServed != int64(wl.Ops) || a.EntriesServed != b.EntriesServed ||
		a.ReadsExecuted != b.ReadsExecuted || a.WritesExecuted != b.WritesExecuted {
		t.Fatalf("served/reads/writes: system %d/%d/%d, fleet of one %d/%d/%d, want equal and %d entries",
			a.EntriesServed, a.ReadsExecuted, a.WritesExecuted, b.EntriesServed, b.ReadsExecuted, b.WritesExecuted, wl.Ops)
	}
}

// TestFleetFailedMigrationRecovers: a migration whose adoption the target
// refuses must not leave the tenant recorded on an engine that does not
// serve it. The tenant becomes unowned, and the next migration re-homes it by
// adoption with nothing lost.
func TestFleetFailedMigrationRecovers(t *testing.T) {
	f, err := NewFleet(DefaultFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ten, err := f.AddTenant(1)
	if err != nil {
		t.Fatal(err)
	}
	fleetRW(t, ten, 0, 0, 0xE1)
	home := ten.Engine()
	other := 1 - home

	otherEng := f.d.engines[other]
	otherEng.Preempt()
	if err := f.MigrateTenant(1, other); err == nil {
		t.Fatal("adoption by a preempted engine succeeded")
	}
	if ten.Engine() >= 0 {
		t.Fatalf("tenant recorded on engine %d after a failed adoption", ten.Engine())
	}
	if _, ok := f.EngineOf(1); ok {
		t.Fatal("EngineOf names an engine for an unowned tenant")
	}
	for e, eng := range f.d.engines {
		if ids := eng.Instances(); len(ids) != 0 {
			t.Fatalf("engine %d still lists instances %v", e, ids)
		}
	}
	if err := f.MigrateTenant(1, other); err == nil {
		t.Fatal("retry against the preempted engine reported success")
	}

	if err := f.MigrateTenant(1, home); err != nil {
		t.Fatalf("re-homing the unowned tenant: %v", err)
	}
	if eng, ok := f.EngineOf(1); !ok || eng != f.d.engines[home] {
		t.Fatal("tenant not served by the engine that adopted it")
	}
	th, _ := ten.Client.Thread(0)
	dest := make([]byte, 64)
	if err := th.ReadSync(0, 0, dest, ioTimeout); err != nil || dest[0] != 0xE1 {
		t.Fatalf("bytes written before the failed migration: %x, %v", dest[:4], err)
	}
	fleetRW(t, ten, 1, 128, 0xE2)
}

// TestFleetAddTenantRetryAfterNoEngine: AddTenant on a fleet with no live
// engine must refuse before it builds anything, so the same call succeeds
// once an engine is back.
func TestFleetAddTenantRetryAfterNoEngine(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.Engines = 1
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if _, err := f.FailEngine(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddTenant(5); err == nil {
		t.Fatal("tenant placed on a fleet with no live engine")
	}
	if _, ok := f.Tenant(5); ok {
		t.Fatal("refused tenant was recorded")
	}
	if _, _, err := f.AddEngine(); err != nil {
		t.Fatal(err)
	}
	ten, err := f.AddTenant(5)
	if err != nil {
		t.Fatalf("retry after AddEngine: %v", err)
	}
	fleetRW(t, ten, 0, 0, 0xE5)
}
