// Package system assembles complete Cowbird deployments: compute nodes
// (client library + RNIC), memory pool nodes, offload engines (Cowbird-Spot
// or Cowbird-P4) and the fabric connecting them. One builder (deploy.go)
// performs the §5.2 Phase I (Setup) wiring — QP creation, PSN exchange,
// region registration, hand-off to the engine — that a real deployment does
// through RDMA CM and a control-plane RPC; System and Fleet are its shapes.
package system

import (
	"fmt"
	"time"

	"cowbird/internal/cache"
	"cowbird/internal/cluster"
	"cowbird/internal/core"
	"cowbird/internal/engine/p4"
	"cowbird/internal/engine/spot"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/telemetry"
	"cowbird/internal/wire"
)

// EngineKind selects the offload engine variant.
type EngineKind int

// Engine variants.
const (
	EngineSpot EngineKind = iota
	EngineP4
)

// Config describes a deployment.
type Config struct {
	Engine     EngineKind
	Threads    int          // compute-side hardware threads (queue sets)
	Layout     rings.Layout // per-thread queue geometry
	RegionSize int          // bytes of remote memory in region 0
	NIC        rdma.Config  // link-level parameters for every NIC
	Spot       spot.Config  // engine tuning (EngineSpot)
	P4         p4.Config    // engine tuning (EngineP4)

	// PoolReplicas is the number of memory pool nodes backing region 0
	// (0 or 1: a single pool). With more, the Spot engine mirrors every write
	// to all replicas and fails reads over when the primary dies; the
	// client's WaitErr then surfaces core.ErrPoolDegraded as an advisory. The
	// P4 pipeline has no staging memory to fan out writes (§7): config error.
	PoolReplicas int

	// PoolRetransmitTimeout and PoolMaxRetries tighten Go-Back-N on the
	// engine→pool QPs alone (rdma.QP.SetRetryPolicy), bounding replica-death
	// detection at roughly their product without touching the engine↔compute
	// path, whose responder shares DMA mutexes with the polling client and
	// must tolerate scheduling stalls. Zero keeps the NIC-wide Config.NIC.
	PoolRetransmitTimeout time.Duration
	PoolMaxRetries        int

	// DisableFencing turns off split-brain write fencing (DESIGN.md §14).
	// By default a Spot deployment binds at fencing epoch 1: every pool
	// replica and the client's queue-set memory refuse RDMA WRITEs carrying
	// an older epoch, and a promoted standby bumps the epoch everywhere
	// before serving, so a partitioned-but-alive old engine demotes itself
	// on its first write instead of corrupting state. The epoch rides the
	// otherwise-unused BTH.PKey; P4 deployments recycle packets with PKey 0
	// and are always unfenced.
	DisableFencing bool

	// Cache configures the client-side hot-data tier (internal/cache): a
	// write-through read cache with an optional stride prefetcher over the
	// per-thread rings. The zero value leaves the client untouched; enabling
	// it changes performance only (DESIGN.md §11).
	Cache cache.Config

	// Telemetry, when non-nil, is installed in the client and the engine:
	// exact issue/harvest counters, 1-in-N stage timings and end-to-end
	// latency histograms land in this one hub. Nil keeps every datapath
	// identical to the uninstrumented build.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig returns a small single-thread deployment with a Spot engine.
func DefaultConfig() Config {
	return Config{
		Engine:     EngineSpot,
		Threads:    1,
		Layout:     rings.Layout{MetaEntries: 256, ReqDataBytes: 256 << 10, RespDataBytes: 256 << 10},
		RegionSize: 4 << 20,
		NIC:        rdma.DefaultConfig(),
		Spot:       spot.DefaultConfig(),
		P4:         p4.DefaultConfig(),
	}
}

// System is a running deployment.
type System struct {
	Fabric  *rdma.Fabric
	Compute *rdma.NIC
	Client  *core.Client
	Pool    *memnode.Node   // the primary pool; == Pools[0]
	Pools   []*memnode.Node // all pool replicas, priority order
	Region  core.RegionInfo

	Spot *spot.Engine // non-nil iff Engine == EngineSpot
	P4   *p4.Engine   // non-nil iff Engine == EngineP4

	d *deployment
}

// systemAddr is the address plan of the standard deployment: the role in
// the last byte, the node's index before it.
func systemAddr(role, i int) nodeAddr {
	last := [...]byte{roleTenant: 0x01, roleMemnode: 0x02, roleEngine: 0x03}[role]
	return nodeAddr{wire.MAC{0x02, 0xC0, 0, 0, byte(i), last}, wire.IPv4Addr{10, 0, byte(i), last}}
}

// PoolMAC and PoolIP address pool replica r. Exported so fault-injection
// tools (internal/chaos, examples) can target a specific replica's links.
func PoolMAC(r int) wire.MAC     { return systemAddr(roleMemnode, r).mac }
func PoolIP(r int) wire.IPv4Addr { return systemAddr(roleMemnode, r).ip }

// ComputeMAC and EngineMAC are exported for the same use: asymmetric
// partitions and zombie-primary schedules target the engine↔compute pair.
func ComputeMAC() wire.MAC { return systemAddr(roleTenant, 0).mac }
func EngineMAC() wire.MAC  { return systemAddr(roleEngine, 0).mac }

// New builds and starts a deployment: the shape of one engine, PoolReplicas
// memnodes and one tenant whose single region every memnode hosts.
func New(cfg Config) (*System, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.PoolReplicas <= 0 {
		cfg.PoolReplicas = 1
	}
	if cfg.Engine == EngineP4 && cfg.PoolReplicas > 1 {
		return nil, fmt.Errorf("system: EngineP4 does not support PoolReplicas > 1 (the switch pipeline cannot mirror writes); use EngineSpot")
	}
	if cfg.Telemetry != nil {
		cfg.Spot.Telemetry = cfg.Telemetry
		cfg.P4.Telemetry = cfg.Telemetry
	}
	sh := shape{
		addr:     systemAddr,
		nicCfg:   cfg.NIC,
		memnodes: cfg.PoolReplicas,
		spotCfg:  cfg.Spot,
		clientCfg: core.ClientConfig{
			Threads:   cfg.Threads,
			Layout:    cfg.Layout,
			BaseVA:    0x10_0000,
			Telemetry: cfg.Telemetry,
			Cache:     cfg.Cache,
		},
		poolRTO:        cfg.PoolRetransmitTimeout,
		poolMaxRetries: cfg.PoolMaxRetries,
	}
	if cfg.Engine == EngineSpot && !cfg.DisableFencing {
		sh.bindEpoch = 1 // pool and client floors rise with the engine's stamp
	}
	d, err := newDeployment(sh)
	if err != nil {
		return nil, err
	}
	placement := make([]cluster.Extent, cfg.PoolReplicas)
	for r := range placement {
		placement[r] = cluster.Extent{Memnode: r, Size: uint64(cfg.RegionSize)}
	}
	t, err := d.newNode(0, placement)
	if err != nil {
		d.close()
		return nil, err
	}
	s := &System{
		Fabric: d.fabric, Compute: t.nic, Client: t.Client,
		Pool: d.memnodes[0], Pools: d.memnodes, Region: t.slots[0].regions[0], d: d,
	}
	switch cfg.Engine {
	case EngineSpot:
		s.Spot = d.engines[d.addEngine()]
		if err = d.attach(t, 0, false); err != nil {
			break
		}
		// Engine-wide client hooks, which only a one-tenant deployment can
		// bind: lost replicas and the engine's demotion surface through the
		// client's WaitErr (core.ErrPoolDegraded, core.ErrFenced).
		t.Client.SetPoolHealth(s.Spot.PoolDegraded)
		if !cfg.DisableFencing {
			t.Client.SetFenceSignal(s.Spot.Fenced)
		}
	case EngineP4:
		// The switch is no fleet member — one interposer per fabric, no
		// adoption, no replicas — so it takes the node from the builder and
		// runs its own handshake.
		a := systemAddr(roleEngine, 0)
		s.P4 = p4.New(d.fabric, a.mac, a.ip, cfg.P4)
		d.fabric.SetInterposer(s.P4)
		if err = setupP4(s.P4, t.inst, t.nic, s.Pool.NIC()); err != nil {
			break
		}
		d.tenants[0] = t
		s.P4.Run()
		if cfg.Telemetry != nil {
			s.P4.RegisterMetrics(cfg.Telemetry.Reg)
		}
	default:
		err = fmt.Errorf("system: unknown engine kind %d", cfg.Engine)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// setupP4 performs Phase I for a Cowbird-P4 instance: a host-side QP on the
// compute and on the pool NIC, the instance registered with the switch
// control plane, the host QPs connected to the switch's emulated endpoints.
func setupP4(eng *p4.Engine, inst *core.Instance, compute, pool *rdma.NIC) error {
	host := func(nic *rdma.NIC, psn uint32) (*rdma.QP, p4.Endpoint) {
		qp := nic.CreateQP(rdma.NewCQ(), rdma.NewCQ(), psn)
		return qp, p4.Endpoint{MAC: nic.MAC(), IP: nic.IP(), QPN: qp.QPN(), FirstPSN: psn, ResetEPSN: qp.ResetExpectedPSN}
	}
	cQP, computeEP := host(compute, 2000)
	mQP, poolEP := host(pool, 4000)
	sw, err := eng.Setup(inst, p4.Endpoints{Compute: computeEP, Pool: poolEP})
	if err != nil {
		return err
	}
	cQP.Connect(rdma.RemoteEndpoint{QPN: sw.ComputeQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
	mQP.Connect(rdma.RemoteEndpoint{QPN: sw.PoolQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
	return nil
}

// Close shuts everything down.
func (s *System) Close() {
	if s.P4 != nil {
		s.P4.Stop()
	}
	s.d.close()
}
