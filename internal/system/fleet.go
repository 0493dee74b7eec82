package system

import (
	"fmt"
	"time"

	"cowbird/internal/cluster"
	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// Fleet assembles a multi-tenant deployment: a fleet of one-worker Spot
// engines, a pool of memnodes composing one remote address space, and many
// tenant compute nodes sharing them. Placement is policy from
// internal/cluster — a consistent-hash ring assigns each tenant's queue
// sets to an engine, and the region directory stripes each tenant's
// address space across memnodes — and this file is the mechanism: it turns
// ring and directory decisions into QP wiring, region allocation, and
// engine registration calls.
//
// The fleet deliberately reuses the single-tenant machinery one level
// down. Engines are ordinary spot.Engines with Workers = 1 (one goroutine
// serving all resident tenants round-robin, with per-tenant token buckets
// and deficit-round-robin interleaving — spot.TenantQoS). Tenants are
// ordinary core.Clients; each one's Instance is registered with
// AddInstancePlaced, whose homes vector carries the directory's
// stripe→memnode placement. Migration between engines is the HA adoption
// primitive: RemoveInstance quiesces and releases the queue sets on the
// source, AdoptInstancePlaced replays the red blocks exactly-once on the
// target (DESIGN.md §15).
type Fleet struct {
	Fabric *rdma.Fabric

	cfg      FleetConfig
	engines  []*fleetEngine
	memnodes []*memnode.Node
	ring     *cluster.Ring
	dir      *cluster.Directory
	tenants  map[int]*Tenant
	psn      uint32
}

// fleetEngine is one engine slot: the engine, its NIC, and liveness.
type fleetEngine struct {
	id   int
	nic  *rdma.NIC
	eng  *spot.Engine
	dead bool
}

// Tenant is one compute node of the fleet: its client library, the engine
// currently serving its queue sets, and the placement needed to rebuild
// the engine-side wiring on migration.
type Tenant struct {
	ID     int
	Client *core.Client

	nic      *rdma.NIC
	engine   int // index into Fleet.engines
	inst     *core.Instance
	extents  []cluster.Extent
	repNodes []int              // memnode index per replica slot
	reps     []spot.PoolReplica // region descriptors per replica slot (QPs rewired per engine)
	homes    [][]int            // stripe -> replica slots, AddInstancePlaced shape
	qos      spot.TenantQoS
}

// Engine returns the index of the engine currently serving the tenant.
func (t *Tenant) Engine() int { return t.engine }

// Extents returns the tenant's directory placement — which memnode and
// node-local region backs each stripe — for isolation checks and tooling.
func (t *Tenant) Extents() []cluster.Extent { return t.extents }

// FleetConfig sizes a fleet.
type FleetConfig struct {
	Engines  int
	Memnodes int
	// VNodes is the consistent-hash ring's virtual-node count per engine
	// (0: cluster.DefaultVNodes).
	VNodes int
	// StripesPerTenant and StripeSize shape each tenant's address space:
	// the directory places this many stripes, each a region of this size,
	// across distinct memnodes. The client sees them as regions
	// 0..StripesPerTenant-1.
	StripesPerTenant int
	StripeSize       int
	// Threads is the number of queue sets per tenant.
	Threads int
	Layout  rings.Layout
	NIC     rdma.Config
	// Spot tunes the engines. Workers is forced to 1 — the fleet's engines
	// multiplex thousands of tenants on one goroutine each, relying on the
	// worker's DRR scheduling and idle-probe pacing; a worker goroutine per
	// tenant queue set would defeat the bounded-state claim.
	Spot spot.Config
	// DefaultQoS is installed for every tenant at AddTenant;
	// Fleet.SetTenantQoS retunes individual tenants afterwards.
	DefaultQoS spot.TenantQoS
}

// DefaultFleetConfig returns a small fleet: 2 engines, 3 memnodes,
// 2-stripe tenants, compact rings sized so thousands of tenants fit in a
// test process.
func DefaultFleetConfig() FleetConfig {
	cfg := FleetConfig{
		Engines:          2,
		Memnodes:         3,
		StripesPerTenant: 2,
		StripeSize:       256 << 10,
		Threads:          1,
		Layout:           rings.Layout{MetaEntries: 64, ReqDataBytes: 16 << 10, RespDataBytes: 16 << 10},
		NIC:              rdma.DefaultConfig(),
		Spot:             spot.DefaultConfig(),
	}
	cfg.Spot.Workers = 1
	cfg.Spot.StagingBytes = 256 << 10
	// Lease heartbeats are a red write per tenant queue per interval; at
	// fleet tenant counts the engine-scale default would drown the
	// datapath. The fleet has no HA failure detector watching the counter,
	// so a slow trickle is plenty.
	cfg.Spot.HeartbeatInterval = time.Second
	// Pool liveness READs fan out per tenant per memnode; same math.
	cfg.Spot.PoolHeartbeatInterval = 0
	return cfg
}

// Fleet addressing: distinct prefixes per role, tenant/engine/memnode
// index in the low bytes, so chaos tools can target any single link.
func tenantMAC(t int) wire.MAC  { return wire.MAC{0x02, 0xFA, 0, byte(t >> 16), byte(t >> 8), byte(t)} }
func engineMAC2(e int) wire.MAC { return wire.MAC{0x02, 0xFB, 0, 0, byte(e >> 8), byte(e)} }
func memMAC(m int) wire.MAC     { return wire.MAC{0x02, 0xFC, 0, 0, byte(m >> 8), byte(m)} }

func tenantIP(t int) wire.IPv4Addr  { return wire.IPv4Addr{10, 4, byte(t >> 8), byte(t)} }
func engineIP2(e int) wire.IPv4Addr { return wire.IPv4Addr{10, 5, byte(e >> 8), byte(e)} }
func memIP(m int) wire.IPv4Addr     { return wire.IPv4Addr{10, 6, byte(m >> 8), byte(m)} }

// NewFleet builds and starts a fleet: every engine running, every memnode
// attached, no tenants yet.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Engines <= 0 || cfg.Memnodes <= 0 {
		return nil, fmt.Errorf("system: fleet needs at least one engine and one memnode")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.StripesPerTenant <= 0 {
		cfg.StripesPerTenant = 1
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = 256 << 10
	}
	cfg.Spot.Workers = 1
	f := &Fleet{
		Fabric:  rdma.NewFabric(),
		cfg:     cfg,
		ring:    cluster.NewRing(cfg.VNodes),
		tenants: make(map[int]*Tenant),
		psn:     100_000,
	}
	for m := 0; m < cfg.Memnodes; m++ {
		f.memnodes = append(f.memnodes, memnode.New(f.Fabric, memMAC(m), memIP(m), cfg.NIC))
	}
	nodes := make([]int, cfg.Memnodes)
	for m := range nodes {
		nodes[m] = m
	}
	f.dir = cluster.NewDirectory(nodes)
	for e := 0; e < cfg.Engines; e++ {
		f.addEngineSlot()
	}
	return f, nil
}

// addEngineSlot builds, starts, and ring-registers one engine.
func (f *Fleet) addEngineSlot() int {
	id := len(f.engines)
	nic := rdma.NewNIC(f.Fabric, engineMAC2(id), engineIP2(id), f.cfg.NIC)
	eng := spot.New(nic, f.cfg.Spot)
	eng.Run()
	f.engines = append(f.engines, &fleetEngine{id: id, nic: nic, eng: eng})
	f.ring.Add(id)
	return id
}

// Engines returns the number of engine slots (live and dead).
func (f *Fleet) Engines() int { return len(f.engines) }

// Memnode returns memnode m, for test inspection (Peek) and fault
// injection (Crash).
func (f *Fleet) Memnode(m int) *memnode.Node { return f.memnodes[m] }

// EngineOf returns the engine currently serving the tenant's queue sets.
func (f *Fleet) EngineOf(tenant int) (*spot.Engine, bool) {
	t, ok := f.tenants[tenant]
	if !ok {
		return nil, false
	}
	return f.engines[t.engine].eng, true
}

// Tenant returns a registered tenant's handle.
func (f *Fleet) Tenant(id int) (*Tenant, bool) {
	t, ok := f.tenants[id]
	return t, ok
}

// nextPSNPair hands out a fresh PSN pair for one QP connection.
func (f *Fleet) nextPSNPair() (uint32, uint32) {
	a := f.psn
	f.psn += 2
	return a, a + 1
}

// connect wires one engine-side QP (on the engine's shared CQ) to a fresh
// passive QP on peer.
func (f *Fleet) connect(fe *fleetEngine, peer *rdma.NIC) *rdma.QP {
	ePSN, pPSN := f.nextPSNPair()
	eQP := fe.nic.CreateQP(fe.eng.CQ(), rdma.NewCQ(), ePSN)
	pQP := peer.CreateQP(rdma.NewCQ(), rdma.NewCQ(), pPSN)
	eQP.Connect(rdma.RemoteEndpoint{QPN: pQP.QPN(), MAC: peer.MAC(), IP: peer.IP()}, pPSN)
	pQP.Connect(rdma.RemoteEndpoint{QPN: eQP.QPN(), MAC: fe.nic.MAC(), IP: fe.nic.IP()}, ePSN)
	return eQP
}

// AddTenant provisions tenant id end to end: directory placement, region
// allocation on the home memnodes, a compute node with its client library,
// QP wiring to the ring-assigned engine, and engine registration with the
// fleet's default QoS. Tenant ids double as instance ids, so they must be
// unique.
func (f *Fleet) AddTenant(id int) (*Tenant, error) {
	if _, dup := f.tenants[id]; dup {
		return nil, fmt.Errorf("system: tenant %d already exists", id)
	}
	ext, err := f.dir.Place(id, f.cfg.StripesPerTenant, uint64(f.cfg.StripeSize))
	if err != nil {
		return nil, err
	}

	t := &Tenant{ID: id, extents: ext, qos: f.cfg.DefaultQoS}
	t.nic = rdma.NewNIC(f.Fabric, tenantMAC(id), tenantIP(id), f.cfg.NIC)
	t.Client, err = core.NewClient(t.nic, core.ClientConfig{
		Threads: f.cfg.Threads,
		Layout:  f.cfg.Layout,
		BaseVA:  0x10_0000,
	})
	if err != nil {
		t.nic.Close()
		return nil, err
	}

	// Allocate each stripe on its home memnode and relabel the node-local
	// region as the client-facing stripe id: the engine's per-replica
	// translation tables key on the client-facing id, so each replica
	// descriptor carries {ID: stripe, node's Base/RKey} and translation is
	// the identity mapping. repNodes assigns one replica slot per distinct
	// memnode the tenant touches, in first-use order.
	slotOf := make(map[int]int)
	t.homes = make([][]int, len(ext))
	for _, e := range ext {
		node := f.memnodes[e.Memnode]
		info, aerr := node.AllocRegion(e.NodeRegionID, int(e.Size))
		if aerr != nil {
			t.nic.Close()
			return nil, aerr
		}
		stripe := core.RegionInfo{ID: e.Stripe, Base: info.Base, Size: info.Size, RKey: info.RKey}
		t.Client.RegisterRegion(stripe)
		slot, ok := slotOf[e.Memnode]
		if !ok {
			slot = len(t.repNodes)
			slotOf[e.Memnode] = slot
			t.repNodes = append(t.repNodes, e.Memnode)
			t.reps = append(t.reps, spot.PoolReplica{})
		}
		t.reps[slot].Regions = append(t.reps[slot].Regions, stripe)
		t.homes[e.Stripe] = []int{slot}
	}
	t.inst = t.Client.Describe(id)

	owner, ok := f.ring.Owner(uint64(id))
	if !ok {
		t.nic.Close()
		return nil, fmt.Errorf("system: no live engine to place tenant %d", id)
	}
	t.engine = owner
	if err := f.registerTenant(t, false); err != nil {
		t.nic.Close()
		return nil, err
	}
	f.tenants[id] = t
	return t, nil
}

// registerTenant wires fresh QPs from the tenant's current engine and
// registers the instance there — AddInstancePlaced on first placement,
// AdoptInstancePlaced (red-block replay) on migration.
func (f *Fleet) registerTenant(t *Tenant, adopt bool) error {
	fe := f.engines[t.engine]
	computeQP := f.connect(fe, t.nic)
	reps := make([]spot.PoolReplica, len(t.reps))
	for slot, node := range t.repNodes {
		reps[slot] = spot.PoolReplica{
			QP:      f.connect(fe, f.memnodes[node].NIC()),
			Regions: t.reps[slot].Regions,
		}
	}
	var err error
	if adopt {
		err = fe.eng.AdoptInstancePlaced(t.inst, computeQP, reps, t.homes)
	} else {
		err = fe.eng.AddInstancePlaced(t.inst, computeQP, reps, t.homes)
	}
	if err != nil {
		return err
	}
	fe.eng.SetTenantQoS(t.ID, t.qos)
	return nil
}

// SetTenantQoS retunes one tenant's rate limit and DRR quantum on its
// current engine, effective from the next serve round.
func (f *Fleet) SetTenantQoS(tenant int, q spot.TenantQoS) error {
	t, ok := f.tenants[tenant]
	if !ok {
		return fmt.Errorf("system: unknown tenant %d", tenant)
	}
	t.qos = q
	if !f.engines[t.engine].eng.SetTenantQoS(tenant, q) {
		return fmt.Errorf("system: tenant %d not registered on engine %d", tenant, t.engine)
	}
	return nil
}

// MigrateTenant moves one tenant's queue sets to the target engine using
// the live-migration protocol: RemoveInstance quiesces the source mid-round
// boundary and stops all its RDMA toward the tenant, then the target adopts
// from the durable red blocks. In-flight client requests complete on the
// target; nothing is re-executed (the red block's single-write publish is
// the exactly-once anchor, exactly as in an HA takeover).
func (f *Fleet) MigrateTenant(tenant, target int) error {
	t, ok := f.tenants[tenant]
	if !ok {
		return fmt.Errorf("system: unknown tenant %d", tenant)
	}
	if target < 0 || target >= len(f.engines) || f.engines[target].dead {
		return fmt.Errorf("system: migration target engine %d not live", target)
	}
	if target == t.engine {
		return nil
	}
	src := f.engines[t.engine]
	if !src.dead {
		src.eng.RemoveInstance(tenant)
	}
	t.engine = target
	return f.registerTenant(t, true)
}

// AddEngine grows the fleet by one engine and rebalances: every tenant
// whose ring owner moved onto the new engine migrates to it. Returns the
// new engine's id and how many tenants moved.
func (f *Fleet) AddEngine() (int, int, error) {
	id := f.addEngineSlot()
	moved, err := f.rebalance()
	return id, moved, err
}

// FailEngine kills engine id abruptly — the spot-preemption event at fleet
// scale — and re-homes every tenant it was serving to that tenant's new
// ring owner via red-block adoption. Returns how many tenants moved.
func (f *Fleet) FailEngine(id int) (int, error) {
	if id < 0 || id >= len(f.engines) || f.engines[id].dead {
		return 0, fmt.Errorf("system: engine %d not live", id)
	}
	fe := f.engines[id]
	fe.dead = true
	f.ring.Remove(id)
	fe.eng.Stop()
	return f.rebalance()
}

// rebalance migrates every tenant whose current engine differs from its
// ring owner.
func (f *Fleet) rebalance() (int, error) {
	moved := 0
	for id, t := range f.tenants {
		owner, ok := f.ring.Owner(uint64(id))
		if !ok {
			return moved, fmt.Errorf("system: no live engine for tenant %d", id)
		}
		if owner == t.engine {
			continue
		}
		if err := f.MigrateTenant(id, owner); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// Close stops every engine and closes every NIC and the fabric.
func (f *Fleet) Close() {
	for _, fe := range f.engines {
		if !fe.dead {
			fe.eng.Stop()
		}
	}
	for _, fe := range f.engines {
		fe.nic.Close()
	}
	for _, t := range f.tenants {
		t.nic.Close()
	}
	for _, m := range f.memnodes {
		m.Close()
	}
	f.Fabric.Close()
}
