// Package system assembles complete Cowbird deployments: a compute node
// (client library + RNIC), a memory pool, an offload engine (Cowbird-Spot
// or Cowbird-P4), and the fabric connecting them. It performs the §5.2
// Phase I (Setup) wiring — QP creation, PSN exchange, region registration,
// and control-plane hand-off to the engine — that a real deployment would
// do through RDMA CM and the switch's control-plane RPC endpoint.
package system

import (
	"fmt"
	"time"

	"cowbird/internal/cache"
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

	// PoolReplicas is the number of memory pool nodes backing region 0.
	// 0 or 1 means a single pool (the original deployment). With more, the
	// Spot engine mirrors every write to all replicas and transparently
	// fails reads over when the primary dies; the client's WaitErr then
	// surfaces core.ErrPoolDegraded as an advisory. Replication is a Spot
	// capability: the P4 switch pipeline has no staging memory to fan out
	// writes (§7), so EngineP4 with PoolReplicas > 1 is a config error.
	PoolReplicas int

	// PoolRetransmitTimeout and PoolMaxRetries tighten Go-Back-N on the
	// engine→pool QPs alone (rdma.QP.SetRetryPolicy), bounding replica-death
	// detection at roughly their product without touching the engine↔compute
	// path — whose responder shares DMA mutexes with the polling client and
	// must tolerate scheduling stalls that would exhaust an aggressive retry
	// budget. Zero values keep the NIC-wide Config.NIC knobs everywhere.
	PoolRetransmitTimeout time.Duration
	PoolMaxRetries        int

	// DisableFencing turns off split-brain write fencing (DESIGN.md §14).
	// By default a Spot deployment binds at fencing epoch 1: every pool
	// replica and the client's queue-set memory refuse RDMA WRITEs carrying
	// an older epoch, and a promoted standby bumps the epoch everywhere
	// before serving, so a partitioned-but-alive old engine demotes itself
	// on its first post-partition write instead of corrupting state. The
	// epoch rides the otherwise-unused BTH.PKey field, so the wire format
	// and P4 deployments (which recycle packets with PKey 0 and are
	// therefore always unfenced) are unchanged.
	DisableFencing bool

	// Cache configures the client-side hot-data tier (internal/cache): a
	// write-through read cache with an optional stride prefetcher, layered
	// over the per-thread rings. Zero value (Enabled == false) keeps the
	// client untouched; enabling it changes performance only — every write
	// still goes to the fabric, and reads return the same bytes they would
	// without it (DESIGN.md §11).
	Cache cache.Config

	// Telemetry, when non-nil, is installed in the client and the engine:
	// exact issue/harvest counters, 1-in-N stage timings, and end-to-end
	// request latency histograms all land in this one hub. Nil (the
	// default) keeps every datapath identical to the uninstrumented build.
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

	engineNIC *rdma.NIC
}

// Addresses used by the standard three-node deployment.
var (
	computeMAC = wire.MAC{0x02, 0xC0, 0, 0, 0, 0x01}
	engineMAC  = wire.MAC{0x02, 0xC0, 0, 0, 0, 0x03}
	computeIP  = wire.IPv4Addr{10, 0, 0, 1}
	engineIP   = wire.IPv4Addr{10, 0, 0, 3}
)

// PoolMAC and PoolIP address pool replica r; replica 0 keeps the addresses
// of the original single-pool deployment. Exported so fault-injection tools
// (internal/chaos, examples) can target a specific replica's links.
func PoolMAC(r int) wire.MAC     { return wire.MAC{0x02, 0xC0, 0, 0, byte(r), 0x02} }
func PoolIP(r int) wire.IPv4Addr { return wire.IPv4Addr{10, 0, byte(r), 2} }

// ComputeMAC and EngineMAC are the compute node's and engine's fabric
// addresses, exported for the same fault-injection use (asymmetric
// partitions and zombie-primary schedules target the engine↔compute pair).
func ComputeMAC() wire.MAC { return computeMAC }
func EngineMAC() wire.MAC  { return engineMAC }

// New builds and starts a deployment.
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
	s := &System{Fabric: rdma.NewFabric()}
	s.Compute = rdma.NewNIC(s.Fabric, computeMAC, computeIP, cfg.NIC)
	for r := 0; r < cfg.PoolReplicas; r++ {
		s.Pools = append(s.Pools, memnode.New(s.Fabric, PoolMAC(r), PoolIP(r), cfg.NIC))
	}
	s.Pool = s.Pools[0]

	var err error
	s.Client, err = core.NewClient(s.Compute, core.ClientConfig{
		Threads:   cfg.Threads,
		Layout:    cfg.Layout,
		BaseVA:    0x10_0000,
		Telemetry: cfg.Telemetry,
		Cache:     cfg.Cache,
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	if cfg.Telemetry != nil && s.Client.Cache() != nil {
		s.Client.Cache().RegisterMetrics(cfg.Telemetry.Reg)
	}
	for _, pool := range s.Pools {
		region, aerr := pool.AllocRegion(0, cfg.RegionSize)
		if aerr != nil {
			s.Close()
			return nil, aerr
		}
		if pool == s.Pool {
			s.Region = region
		}
	}
	s.Client.RegisterRegion(s.Region)
	inst := s.Client.Describe(0)

	switch cfg.Engine {
	case EngineSpot:
		s.engineNIC = rdma.NewNIC(s.Fabric, engineMAC, engineIP, cfg.NIC)
		if cfg.Telemetry != nil {
			cfg.Spot.Telemetry = cfg.Telemetry
		}
		eng := spot.New(s.engineNIC, cfg.Spot)
		if err := WireSpotInstanceReplicated(eng, inst, s.Compute, s.Pools, cfg.PoolRetransmitTimeout, cfg.PoolMaxRetries); err != nil {
			s.Close()
			return nil, err
		}
		if !cfg.DisableFencing {
			// Bind at epoch 1: pools and client floors rise together with the
			// engine's stamp, and a fencing NAK anywhere surfaces through the
			// client's WaitErr as core.ErrFenced.
			for _, pool := range s.Pools {
				if ferr := pool.Fence(1); ferr != nil {
					s.Close()
					return nil, ferr
				}
			}
			if ferr := s.Client.Fence(1); ferr != nil {
				s.Close()
				return nil, ferr
			}
			eng.SetFenceEpoch(1)
			s.Client.SetFenceSignal(eng.Fenced)
		}
		eng.Run()
		s.Spot = eng
		if cfg.Telemetry != nil {
			eng.RegisterMetrics(cfg.Telemetry.Reg)
		}
		// Surface lost-replica advisories through the client's WaitErr.
		s.Client.SetPoolHealth(eng.PoolDegraded)
	case EngineP4:
		if cfg.Telemetry != nil {
			cfg.P4.Telemetry = cfg.Telemetry
		}
		eng := p4.New(s.Fabric, engineMAC, engineIP, cfg.P4)
		s.Fabric.SetInterposer(eng)
		if err := WireP4Instance(eng, inst, s.Compute, s.Pool.NIC()); err != nil {
			s.Close()
			return nil, err
		}
		eng.Run()
		s.P4 = eng
		if cfg.Telemetry != nil {
			eng.RegisterMetrics(cfg.Telemetry.Reg)
		}
	default:
		s.Close()
		return nil, fmt.Errorf("system: unknown engine kind %d", cfg.Engine)
	}
	return s, nil
}

// WireSpotInstanceReplicated performs the Setup handshake between a Spot
// engine and a compute node backed by one or more pool replicas (priority
// order; pools[0] is the primary): it creates the engine-side QPs and the
// passive QPs on the compute and pool NICs, exchanges PSNs, and registers
// the instance. Each replica gets its own engine-side QP, and its own region
// descriptors are handed to the engine for per-replica address translation. poolRTO and
// poolMaxRetries, when nonzero, install a per-QP Go-Back-N override on the
// engine→pool QPs (see Config.PoolRetransmitTimeout).
//
// Beyond the instance-wide QPs, every queue set also gets its own dedicated
// datapath QPs — one to the compute node and one per pool replica, all
// completing into a private send CQ — so an engine with a worker per queue
// set (spot.Config.Workers = 0) runs each worker to completion on its own
// goroutine (spot.AddInstanceWired): no shared hardware CQ, no
// demultiplexer hop, no per-QP lock shared between shards. An engine with
// pinned workers accepts the same wiring and simply serves through the
// instance-wide QPs.
func WireSpotInstanceReplicated(eng *spot.Engine, inst *core.Instance, compute *rdma.NIC, pools []*memnode.Node, poolRTO time.Duration, poolMaxRetries int) error {
	if len(pools) == 0 {
		return fmt.Errorf("system: no pool replicas to wire")
	}
	unusedCQ := rdma.NewCQ()

	// connect performs one PSN exchange between an engine-side QP (created
	// on sendCQ) and a fresh passive QP on the peer NIC.
	connect := func(sendCQ *rdma.CQ, peer *rdma.NIC, ePSN, pPSN uint32) *rdma.QP {
		eQP := eng.NIC().CreateQP(sendCQ, unusedCQ, ePSN)
		pQP := peer.CreateQP(rdma.NewCQ(), rdma.NewCQ(), pPSN)
		eQP.Connect(rdma.RemoteEndpoint{QPN: pQP.QPN(), MAC: peer.MAC(), IP: peer.IP()}, pPSN)
		pQP.Connect(rdma.RemoteEndpoint{QPN: eQP.QPN(), MAC: eng.NIC().MAC(), IP: eng.NIC().IP()}, ePSN)
		return eQP
	}

	// Instance-wide QPs: adoption reads, pinned workers, scrub.
	eCompQP := connect(eng.CQ(), compute, 1000, 2000)
	var reps []spot.PoolReplica
	for r, pool := range pools {
		eMemQP := connect(eng.CQ(), pool.NIC(), uint32(3000+r*200), uint32(4000+r*200))
		eMemQP.SetRetryPolicy(poolRTO, poolMaxRetries)
		reps = append(reps, spot.PoolReplica{QP: eMemQP, Regions: pool.Regions()})
	}

	// Per-queue dedicated datapath QPs (run-to-completion wiring).
	var queues []spot.QueueEndpoints
	for q := range inst.Queues {
		base := uint32(1_000_000 + q*10_000)
		sendCQ := rdma.NewCQ()
		ep := spot.QueueEndpoints{
			SendCQ:    sendCQ,
			ComputeQP: connect(sendCQ, compute, base, base+1),
		}
		for r, pool := range pools {
			pQP := connect(sendCQ, pool.NIC(), base+uint32(100+2*r), base+uint32(101+2*r))
			pQP.SetRetryPolicy(poolRTO, poolMaxRetries)
			ep.Pools = append(ep.Pools, pQP)
		}
		queues = append(queues, ep)
	}
	return eng.AddInstanceWired(inst, eCompQP, reps, queues)
}

// WireP4Instance performs Phase I for a Cowbird-P4 instance: it creates
// host-side QPs on the compute and pool NICs, registers the instance with
// the switch control plane, and connects the host QPs to the switch's
// emulated endpoints.
func WireP4Instance(eng *p4.Engine, inst *core.Instance, compute, pool *rdma.NIC) error {
	cQP := compute.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 2000)
	mQP := pool.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 4000)
	sw, err := eng.Setup(inst, p4.Endpoints{
		Compute: p4.Endpoint{
			MAC: compute.MAC(), IP: compute.IP(), QPN: cQP.QPN(), FirstPSN: 2000,
			ResetEPSN: cQP.ResetExpectedPSN,
		},
		Pool: p4.Endpoint{
			MAC: pool.MAC(), IP: pool.IP(), QPN: mQP.QPN(), FirstPSN: 4000,
			ResetEPSN: mQP.ResetExpectedPSN,
		},
	})
	if err != nil {
		return err
	}
	cQP.Connect(rdma.RemoteEndpoint{QPN: sw.ComputeQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
	mQP.Connect(rdma.RemoteEndpoint{QPN: sw.PoolQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
	return nil
}

// Close shuts everything down.
func (s *System) Close() {
	if s.Spot != nil {
		s.Spot.Stop()
	}
	if s.P4 != nil {
		s.P4.Stop()
	}
	if s.engineNIC != nil {
		s.engineNIC.Close()
	}
	if s.Compute != nil {
		s.Compute.Close()
	}
	for _, p := range s.Pools {
		p.Close()
	}
	if s.Fabric != nil {
		s.Fabric.Close()
	}
}
