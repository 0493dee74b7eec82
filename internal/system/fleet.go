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

// Fleet is the multi-tenant deployment: one-worker Spot engines, memnodes
// composing one remote address space, and many tenant compute nodes sharing
// them. internal/cluster is the policy — a consistent-hash ring assigns each
// tenant's queue sets to an engine, the region directory stripes its address
// space across memnodes — and the deployment builder the mechanism. Engines
// are ordinary spot.Engines with Workers = 1 (per-tenant token buckets and
// deficit round-robin, spot.TenantQoS), tenants ordinary core.Clients, and
// migration the HA adoption primitive (DESIGN.md §15). Not safe for
// concurrent use: ring, directory and builder are driven from one control
// goroutine, as every caller does.
type Fleet struct {
	Fabric *rdma.Fabric

	cfg  FleetConfig
	d    *deployment
	ring *cluster.Ring
	dir  *cluster.Directory
}

// FleetConfig sizes a fleet.
type FleetConfig struct {
	Engines  int
	Memnodes int
	// StripesPerTenant and StripeSize shape each tenant's address space: the
	// directory places this many stripes, each a region of this size, across
	// distinct memnodes. The client sees regions 0..StripesPerTenant-1.
	StripesPerTenant int
	StripeSize       int
	// Threads is the number of queue sets per tenant.
	Threads int
	Layout  rings.Layout
	NIC     rdma.Config
	// Spot tunes the engines. Workers is forced to 1: each engine multiplexes
	// thousands of tenants on one goroutine by DRR scheduling and idle-probe
	// pacing; a worker per tenant queue set would defeat the bounded state.
	Spot spot.Config
}

// DefaultFleetConfig returns a small fleet: 2 engines, 3 memnodes, 2-stripe
// tenants, compact rings sized so thousands of tenants fit in a test process.
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
	// fleet tenant counts the default would drown the datapath, and no
	// failure detector watches the counter here, so a slow trickle is plenty.
	// Pool liveness READs fan out per tenant per memnode: same math.
	cfg.Spot.HeartbeatInterval = time.Second
	cfg.Spot.PoolHeartbeatInterval = 0
	return cfg
}

// fleetAddr is the fleet's address plan: a distinct prefix per role, the
// node's index in the low bytes, so chaos tools can target any single link.
func fleetAddr(role, i int) nodeAddr {
	return nodeAddr{
		mac: wire.MAC{0x02, 0xFA + byte(role), 0, byte(i >> 16), byte(i >> 8), byte(i)},
		ip:  wire.IPv4Addr{10, 4 + byte(role), byte(i >> 8), byte(i)},
	}
}

// NewFleet builds and starts a fleet: every engine running, every memnode
// attached, no tenants yet. Its shape is unfenced and uncached, with the zero
// spot.TenantQoS installed for every tenant (SetTenantQoS retunes one).
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
	d, err := newDeployment(shape{
		addr:      fleetAddr,
		nicCfg:    cfg.NIC,
		memnodes:  cfg.Memnodes,
		spotCfg:   cfg.Spot,
		clientCfg: core.ClientConfig{Threads: cfg.Threads, Layout: cfg.Layout, BaseVA: 0x10_0000},
		qos:       new(spot.TenantQoS),
	})
	if err != nil {
		return nil, err
	}
	nodes := make([]int, cfg.Memnodes)
	for m := range nodes {
		nodes[m] = m
	}
	f := &Fleet{Fabric: d.fabric, cfg: cfg, d: d, ring: cluster.NewRing(cluster.DefaultVNodes), dir: cluster.NewDirectory(nodes)}
	for e := 0; e < cfg.Engines; e++ {
		f.ring.Add(d.addEngine())
	}
	return f, nil
}

// Engines returns the number of engine slots (live and dead).
func (f *Fleet) Engines() int { return len(f.d.engines) }

// Memnode returns memnode m, for inspection (Peek) and fault injection (Crash).
func (f *Fleet) Memnode(m int) *memnode.Node { return f.d.memnodes[m] }

// EngineOf returns the engine serving the tenant; false if unknown or unowned.
func (f *Fleet) EngineOf(tenant int) (*spot.Engine, bool) {
	t, ok := f.d.tenants[tenant]
	if !ok || t.engine < 0 {
		return nil, false
	}
	return f.d.engines[t.engine], true
}

// Tenant returns a registered tenant's handle.
func (f *Fleet) Tenant(id int) (*Tenant, bool) {
	t, ok := f.d.tenants[id]
	return t, ok
}

// AddTenant provisions tenant id end to end: directory placement, regions on
// the home memnodes, a compute node with its client library, QP wiring to
// the ring-assigned engine, registration there. Tenant ids double as
// instance ids, so they must be unique. The ring is asked first: with no live
// engine nothing is built, and the call can be repeated once one is back.
func (f *Fleet) AddTenant(id int) (*Tenant, error) {
	owner, ok := f.ring.Owner(uint64(id))
	if !ok {
		return nil, fmt.Errorf("system: no live engine to place tenant %d", id)
	}
	ext, err := f.dir.Place(id, f.cfg.StripesPerTenant, uint64(f.cfg.StripeSize))
	if err != nil {
		return nil, err
	}
	t, err := f.d.newNode(id, ext)
	if err != nil {
		return nil, err
	}
	if err := f.d.attach(t, owner, false); err != nil {
		return nil, err
	}
	return t, nil
}

// SetTenantQoS retunes one tenant's rate limit and DRR quantum, effective
// from the next serve round and carried along when the tenant migrates.
func (f *Fleet) SetTenantQoS(tenant int, q spot.TenantQoS) error {
	t, ok := f.d.tenants[tenant]
	if !ok {
		return fmt.Errorf("system: unknown tenant %d", tenant)
	}
	t.qos = &q
	if t.engine < 0 || !f.d.engines[t.engine].SetTenantQoS(tenant, q) {
		return fmt.Errorf("system: tenant %d not registered on engine %d", tenant, t.engine)
	}
	return nil
}

// MigrateTenant moves one tenant's queue sets to the target engine by the
// builder's detach and adopting attach: in-flight requests complete on the
// target, nothing is re-executed. The target owns the tenant only once its
// adoption succeeded; if it fails the tenant is unowned — EngineOf reports
// false, its requests wait — until the next MigrateTenant or rebalance
// re-homes it the same way. The source is not asked to take it back.
func (f *Fleet) MigrateTenant(tenant, target int) error {
	t, ok := f.d.tenants[tenant]
	if !ok {
		return fmt.Errorf("system: unknown tenant %d", tenant)
	}
	if target < 0 || target >= len(f.d.engines) || f.d.dead[target] {
		return fmt.Errorf("system: migration target engine %d not live", target)
	}
	if target == t.engine {
		return nil
	}
	f.d.detach(t)
	return f.d.attach(t, target, true)
}

// AddEngine grows the fleet by one engine and migrates every tenant whose
// ring owner it became. Returns the new engine's id and how many moved.
func (f *Fleet) AddEngine() (int, int, error) {
	id := f.d.addEngine()
	f.ring.Add(id)
	moved, err := f.rebalance()
	return id, moved, err
}

// FailEngine kills engine id abruptly — spot preemption at fleet scale — and
// re-homes every tenant it served to the tenant's new ring owner by
// red-block adoption. Returns how many tenants moved.
func (f *Fleet) FailEngine(id int) (int, error) {
	if id < 0 || id >= len(f.d.engines) || f.d.dead[id] {
		return 0, fmt.Errorf("system: engine %d not live", id)
	}
	f.d.dead[id] = true
	f.ring.Remove(id)
	f.d.engines[id].Stop()
	return f.rebalance()
}

// rebalance migrates every tenant whose current engine differs from its
// ring owner, the unowned ones included.
func (f *Fleet) rebalance() (int, error) {
	moved := 0
	for id, t := range f.d.tenants {
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
func (f *Fleet) Close() { f.d.close() }
