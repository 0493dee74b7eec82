package system

import (
	"fmt"
	"slices"
	"time"

	"cowbird/internal/cluster"
	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// Node roles of an address plan, and what the plan gives the i-th node of one.
const (
	roleTenant = iota
	roleEngine
	roleMemnode
)

type nodeAddr struct {
	mac wire.MAC
	ip  wire.IPv4Addr
}

// shape is everything that differs from one deployment to the next, as
// values. New and NewFleet each fill one in; the builder reads the values
// and never asks who supplied them.
type shape struct {
	addr     func(role, i int) nodeAddr // chaos schedules target links by these
	nicCfg   rdma.Config                // link-level parameters of every NIC
	memnodes int
	// spotCfg tunes every engine. Workers also decides the wiring: a tenant
	// gets dedicated per-queue endpoints iff Workers == 0, exactly when the
	// engine serves through them (a pinned worker would ignore them).
	spotCfg spot.Config
	// clientCfg sizes every tenant's client library. Its telemetry hub, when
	// set, also receives the engines' and the cache's gauges.
	clientCfg core.ClientConfig
	// bindEpoch is the fencing epoch (DESIGN.md §14) engines are stamped with
	// and memnode and client write floors start at; 0 admits everything.
	bindEpoch uint16
	// qos, when non-nil, is installed at every registration, the zero value
	// included: installed state is what puts a tenant's rounds on the engine's
	// reserve/refund/DRR path. Nil installs nothing — no QoS mutex per probe.
	qos *spot.TenantQoS
	// Go-Back-N override for the engine→pool QPs alone
	// (Config.PoolRetransmitTimeout); zero keeps the NIC-wide values.
	poolRTO        time.Duration
	poolMaxRetries int
}

// deployment is the one assembler of §5.2 Phase I (Setup): it owns the
// fabric, the memnodes, the Spot engines and the tenants, and performs every
// step of the handshake — create QPs, exchange PSNs, allocate and register
// regions, hand the instance to the engine. A System is one engine,
// PoolReplicas memnodes and one tenant whose single region every memnode
// hosts; a Fleet is E engines × M memnodes × tenants striped by the
// directory. Driven from one control goroutine, like the facades over it.
type deployment struct {
	shape
	fabric   *rdma.Fabric
	nics     []*rdma.NIC // every engine and tenant NIC, for close
	memnodes []*memnode.Node
	engines  []*spot.Engine
	dead     map[int]bool // engines that were failed
	tenants  map[int]*Tenant
	psn      uint32 // next unissued PSN; every connection takes two
}

// Tenant is one compute node: its client library, the engine serving its
// queue sets, and the placement that rebuilds the wiring on migration.
type Tenant struct {
	ID     int
	Client *core.Client

	nic     *rdma.NIC
	inst    *core.Instance
	engine  int // index of the engine serving the queue sets; negative while unowned
	extents []cluster.Extent
	slots   []replicaSlot // one per memnode the tenant touches, first-use order
	// homes maps stripe → slots hosting it (spot.Registration.Homes). Nil when
	// every stripe is hosted on every slot: the mirrored model, with primary
	// rotation, scrub and read-repair, which the engine's placed path skips.
	homes [][]int
	qos   *spot.TenantQoS
}

// Engine returns the serving engine's index; negative while none serves
// (see Fleet.MigrateTenant).
func (t *Tenant) Engine() int { return t.engine }

// Extents returns the placement: the memnode and node-local region per stripe.
func (t *Tenant) Extents() []cluster.Extent { return t.extents }

// replicaSlot is one memnode as a tenant's engines see it: the regions it
// hosts, relabelled to the client-facing stripe ids the engine keys on.
type replicaSlot struct {
	memnode int
	regions []core.RegionInfo
}

// newDeployment builds the fabric and the memnodes, floors at the bind epoch
// (regions allocated later inherit it). No engines or tenants yet.
func newDeployment(sh shape) (*deployment, error) {
	d := &deployment{shape: sh, fabric: rdma.NewFabric(), dead: make(map[int]bool), tenants: make(map[int]*Tenant), psn: 100_000}
	for m := 0; m < sh.memnodes; m++ {
		a := sh.addr(roleMemnode, m)
		d.memnodes = append(d.memnodes, memnode.New(d.fabric, a.mac, a.ip, sh.nicCfg))
		if err := d.memnodes[m].Fence(sh.bindEpoch); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// newNIC attaches the NIC of the i-th node of a role. The deployment closes
// it, whatever becomes of the node.
func (d *deployment) newNIC(role, i int) *rdma.NIC {
	a := d.addr(role, i)
	d.nics = append(d.nics, rdma.NewNIC(d.fabric, a.mac, a.ip, d.nicCfg))
	return d.nics[len(d.nics)-1]
}

// addEngine builds and starts one Spot engine and returns its index. The
// engine is stamped with the bind epoch before it runs and before it is
// handed a QP — every QP registered later inherits the stamp — because one
// write at epoch 0 against a raised floor (a lease heartbeat is enough)
// would depose it for good.
func (d *deployment) addEngine() int {
	eng := spot.New(d.newNIC(roleEngine, len(d.engines)), d.spotCfg)
	eng.SetFenceEpoch(d.bindEpoch)
	eng.Run()
	if tel := d.clientCfg.Telemetry; tel != nil {
		eng.RegisterMetrics(tel.Reg)
	}
	d.engines = append(d.engines, eng)
	return len(d.engines) - 1
}

// newNode builds tenant id's compute node — NIC, client library with its
// floor at the bind epoch — and allocates its address space. placement lists
// (stripe, memnode, node-local region, size); extents sharing a stripe are
// mirrors of it. Each region is relabelled to its client-facing stripe id,
// and every memnode touched gets one replica slot in first-use order: the
// first host of a stripe is the copy the client addresses and, mirrored, the
// primary. The node is neither registered nor recorded yet. The duplicate
// check precedes the first side effect; what follows fails only on a
// configuration error, which no retry would cure.
func (d *deployment) newNode(id int, placement []cluster.Extent) (*Tenant, error) {
	if _, dup := d.tenants[id]; dup {
		return nil, fmt.Errorf("system: tenant %d already exists", id)
	}
	t := &Tenant{ID: id, engine: -1, extents: placement, qos: d.qos, nic: d.newNIC(roleTenant, id)}
	var err error
	if t.Client, err = core.NewClient(t.nic, d.clientCfg); err != nil {
		return nil, err
	}
	if tel := d.clientCfg.Telemetry; tel != nil && t.Client.Cache() != nil {
		t.Client.Cache().RegisterMetrics(tel.Reg)
	}
	if err := t.Client.Fence(d.bindEpoch); err != nil {
		return nil, err
	}
	for _, e := range placement {
		info, err := d.memnodes[e.Memnode].AllocRegion(e.NodeRegionID, int(e.Size))
		if err != nil {
			return nil, err
		}
		region := core.RegionInfo{ID: e.Stripe, Base: info.Base, Size: info.Size, RKey: info.RKey}
		slot := slices.IndexFunc(t.slots, func(s replicaSlot) bool { return s.memnode == e.Memnode })
		if slot < 0 {
			slot = len(t.slots)
			t.slots = append(t.slots, replicaSlot{memnode: e.Memnode})
		}
		t.slots[slot].regions = append(t.slots[slot].regions, region)
		for int(e.Stripe) >= len(t.homes) {
			t.homes = append(t.homes, nil)
		}
		if t.homes[e.Stripe] == nil {
			t.Client.RegisterRegion(region)
		}
		t.homes[e.Stripe] = append(t.homes[e.Stripe], slot)
	}
	if !slices.ContainsFunc(t.homes, func(h []int) bool { return len(h) != len(t.slots) }) {
		t.homes = nil
	}
	t.inst = t.Client.Describe(id)
	return t, nil
}

// connect performs one PSN exchange between a new QP on eng's NIC, completing
// into sendCQ, and a new passive QP on peer.
func (d *deployment) connect(eng *spot.Engine, sendCQ *rdma.CQ, peer *rdma.NIC) *rdma.QP {
	psn := d.psn
	d.psn += 2
	qp, _ := rdma.ConnectPair(eng.NIC(), sendCQ, psn, peer, psn+1)
	return qp
}

// attach is the Setup handshake between tenant t and engine e: fresh QPs from
// the engine to the compute node and to every replica slot — instance-wide
// ones on the engine's shared CQ, dedicated per-queue ones (shape.spotCfg) on
// a private CQ each — then the registration; adopt rebuilds the queue state
// from the durable red blocks. Only once the engine has accepted is t
// recorded, as a tenant and as served by e. The control plane has no call
// that frees a QP: those of a refused registration stay on their NICs, unused.
func (d *deployment) attach(t *Tenant, e int, adopt bool) error {
	eng := d.engines[e]
	wire := func(cq *rdma.CQ) (*rdma.QP, []*rdma.QP) {
		computeQP := d.connect(eng, cq, t.nic)
		poolQPs := make([]*rdma.QP, len(t.slots))
		for i, sl := range t.slots {
			poolQPs[i] = d.connect(eng, cq, d.memnodes[sl.memnode].NIC())
			poolQPs[i].SetRetryPolicy(d.poolRTO, d.poolMaxRetries)
		}
		return computeQP, poolQPs
	}
	computeQP, poolQPs := wire(eng.CQ())
	pools := make([]spot.PoolReplica, len(t.slots))
	for i, sl := range t.slots {
		pools[i] = spot.PoolReplica{QP: poolQPs[i], Regions: sl.regions}
	}
	var queues []spot.QueueEndpoints
	if d.spotCfg.Workers == 0 {
		for range t.inst.Queues {
			ep := spot.QueueEndpoints{SendCQ: rdma.NewCQ()}
			ep.ComputeQP, ep.Pools = wire(ep.SendCQ)
			queues = append(queues, ep)
		}
	}
	err := eng.Register(spot.Registration{
		Instance: t.inst, ComputeQP: computeQP, Pools: pools, Queues: queues, Homes: t.homes, Adopt: adopt,
	})
	if err != nil {
		return err
	}
	if t.qos != nil {
		eng.SetTenantQoS(t.ID, *t.qos)
	}
	t.engine = e
	d.tenants[t.ID] = t
	return nil
}

// detach releases t from its engine, if it has a live one, and reports
// whether it was resident: once RemoveInstance has returned, no RDMA of that
// engine touches the tenant's rings or regions. t is unowned until an attach
// adopts it from the red blocks — exactly-once whether or not the old engine
// was there to let go.
func (d *deployment) detach(t *Tenant) bool {
	e := t.engine
	t.engine = -1
	return e >= 0 && !d.dead[e] && d.engines[e].RemoveInstance(t.ID)
}

// close stops every engine and closes every NIC and the fabric.
func (d *deployment) close() {
	for _, eng := range d.engines {
		eng.Stop()
	}
	for _, nic := range d.nics {
		nic.Close()
	}
	for _, m := range d.memnodes {
		m.Close()
	}
	d.fabric.Close()
}
