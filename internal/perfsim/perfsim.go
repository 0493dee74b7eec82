// Package perfsim is the performance layer of the reproduction: a
// deterministic discrete-event model of the paper's testbed (8-core/16-
// hyperthread compute node, 100 Gb/s links through a Tofino switch, a
// memory pool, and the offload engines) driven by the calibrated CPU-cost
// model of package cpumodel.
//
// The functional packages (rdma, core, engine/*) prove the protocols
// correct; this package predicts their performance. Wall-clock measurement
// of the functional layer would be dominated by Go's scheduler and GC
// (the repro-band hint: "GC hurts datapath"), so every figure in the
// paper's evaluation is regenerated from this virtual-time model instead,
// preserving the shapes — who wins, by what factor, where curves cross and
// saturate — rather than absolute testbed numbers.
package perfsim

import (
	"math"
	"math/rand"
	"sort"

	"cowbird/internal/cpumodel"
	"cowbird/internal/sim"
)

// System enumerates every communication substrate the paper evaluates.
type System int

// Systems under test.
const (
	LocalMemory System = iota
	TwoSidedSync
	OneSidedSync
	OneSidedAsync  // batch-100 asynchronous verbs
	CowbirdNoBatch // Cowbird-Spot with response batching disabled
	CowbirdSpot
	CowbirdP4
	Redy
	AIFM
	SSD
)

// String names the system as the paper's legends do.
func (s System) String() string {
	switch s {
	case LocalMemory:
		return "Local memory"
	case TwoSidedSync:
		return "Two-sided RDMA (sync)"
	case OneSidedSync:
		return "One-sided RDMA (sync)"
	case OneSidedAsync:
		return "One-sided RDMA (async)"
	case CowbirdNoBatch:
		return "Cowbird (batching disabled)"
	case CowbirdSpot:
		return "Cowbird-Spot"
	case CowbirdP4:
		return "Cowbird-P4"
	case Redy:
		return "Redy"
	case AIFM:
		return "AIFM"
	case SSD:
		return "SSD"
	}
	return "unknown"
}

// Workload selects the application loop.
type Workload int

// Workloads from the paper's evaluation.
const (
	// HashProbe is the §8.1 microbenchmark: hash-index probes over records
	// split 5% local / 95% remote.
	HashProbe Workload = iota
	// FasterYCSB is the §7/§8.1 FASTER + YCSB macro-benchmark.
	FasterYCSB
	// RawReads is the §8.2 AIFM comparison: uniform remote object reads.
	RawReads
)

// Config describes one simulation run (one point on one curve).
type Config struct {
	System     System
	Workload   Workload
	Threads    int
	RecordSize int
	// OpsPerThread sizes the run; larger runs tighten the steady-state
	// estimate. Defaults to 3000.
	OpsPerThread int
	// RemoteFraction is the probability an op touches remote memory
	// (HashProbe: 0.95; FasterYCSB: the storage-layer hit rate).
	RemoteFraction float64
	// WriteFraction is the probability a remote op is a write.
	WriteFraction float64
	// Window is the async pipelining depth (the paper's batch size 100).
	Window int
	// BatchSize is the Cowbird engine's response batch.
	BatchSize int
	// Cores is the compute node's hyperthread count (testbed: 16).
	Cores int
	// PauseAllReads forces the switch rule (§5.3) onto any Cowbird engine:
	// every round's reads wait for its writes. The P4 engine always
	// behaves this way; the spot engine only stalls on true range overlaps
	// (rare under uniform workloads), modeled as no stall. Used by the
	// pause-rule ablation.
	PauseAllReads bool
	// ExtraThreads are framework threads sharing the cores (Redy I/O).
	ExtraThreads int
	Model        cpumodel.Model
	Seed         int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.RecordSize <= 0 {
		c.RecordSize = 64
	}
	if c.OpsPerThread <= 0 {
		c.OpsPerThread = 3000
	}
	if c.RemoteFraction == 0 {
		c.RemoteFraction = 0.95
	}
	if c.Window <= 0 {
		c.Window = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Cores <= 0 {
		c.Cores = 16
	}
	if c.Model == (cpumodel.Model{}) {
		c.Model = cpumodel.Default()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result summarizes one run.
type Result struct {
	ThroughputMOPS float64
	CommRatio      float64 // time in the communication library / total time
	LatencyP50     float64 // ns, per completed remote op
	LatencyP99     float64 // ns
	// Traffic on the compute node's links, for the Figure 14 model.
	// Probe traffic (lowest priority, §8.4) is reported separately.
	BytesUpPerSec    float64 // compute → switch
	BytesDownPerSec  float64
	PktsUpPerSec     float64
	PktsDownPerSec   float64
	ProbePktsPerSec  float64
	ProbeBytesPerSec float64
	DurationNS       int64
}

// pktHeader is the per-packet RoCEv2 overhead (Ethernet+IP+UDP+BTH+RETH/
// AETH+ICRC, plus preamble/IFG).
const pktHeader = 90

// cluster is the modeled testbed.
type cluster struct {
	e   *sim.Engine
	m   cpumodel.Model
	cfg Config

	// NIC message-rate stations, split tx/rx (full-duplex processing).
	compNICtx station
	compNICrx station
	poolNICtx station
	poolNICrx station
	engNICtx  station

	// Unidirectional link stations (bytes at 100 Gb/s).
	c2s station // compute → switch
	s2c station // switch → compute
	p2s station // pool → switch
	s2p station // switch → pool

	poolCPU *multiStation // pool-side CPU for two-sided RPCs
	ssd     *multiStation // SSD channels (shallow effective queue depth)
	aifmRT  station       // AIFM/Shenango runtime dispatch core
	redyIO  station       // Redy I/O-thread pool
	engCPU  station       // Cowbird-Spot agent core (§8.4: at most one core)

	// Oversubscription: CPU bursts stretch by this factor when runnable
	// threads exceed cores (static per run).
	stretch float64

	msgGap int64 // ns between verbs at one RNIC

	// Traffic accounting on the compute links. Probe traffic is counted
	// separately: probes ride the lowest network priority and yield to
	// user traffic (§5.2, §8.4), so the Figure 14 interference model
	// excludes them.
	bytesUp, bytesDown, pktsUp, pktsDown int64
	probePkts, probeBytes                int64
	probeMode                            bool // set while building probe chains

	remaining int // live application threads
}

// account attributes one message's packets to the right class.
func (c *cluster) account(n, k int, up bool) {
	if c.probeMode {
		c.probePkts += int64(k)
		c.probeBytes += int64(n + k*pktHeader)
		return
	}
	if up {
		c.bytesUp += int64(n + k*pktHeader)
		c.pktsUp += int64(k)
	} else {
		c.bytesDown += int64(n + k*pktHeader)
		c.pktsDown += int64(k)
	}
}

func (c *cluster) wireT(bytes int) int64 {
	return int64(float64(bytes) / c.m.NetLinkBandwidth)
}

func (c *cluster) lat() int64 { return int64(c.m.NetBaseLatency) }

func (c *cluster) swd() int64 { return int64(c.m.SwitchPipeDelay) }

func (c *cluster) npkts(n int) int {
	const mtu = 1024
	k := (n + mtu - 1) / mtu
	if k == 0 {
		k = 1
	}
	return k
}

// cpu charges a CPU burst to the calling thread (stretched when the node
// is oversubscribed).
func (c *cluster) cpu(p *sim.Proc, ns float64) {
	if ns <= 0 {
		return
	}
	p.Sleep(int64(ns * c.stretch))
}

// --- transfer hop builders -------------------------------------------------
//
// Each builder returns the hop chain for one RDMA message and updates the
// compute-link traffic counters (used by the Figure 14 contention model).

// hopsC2P: compute → pool message of n payload bytes.
func (c *cluster) hopsC2P(n int) []hop {
	k := c.npkts(n)
	c.account(n, k, true)
	w := c.wireT(n + k*pktHeader)
	return []hop{
		{&c.compNICtx, c.msgGap},
		{&c.c2s, w},
		{nil, c.swd()},
		{&c.s2p, w},
		{nil, c.lat()},
	}
}

// hopsP2C: pool → compute message.
func (c *cluster) hopsP2C(n int) []hop {
	k := c.npkts(n)
	c.account(n, k, false)
	w := c.wireT(n + k*pktHeader)
	return []hop{
		{&c.poolNICtx, c.msgGap},
		{&c.p2s, w},
		{nil, c.swd()},
		{&c.s2c, w},
		{nil, c.lat()},
	}
}

// hopsE2C: engine → compute. For Cowbird-P4 the engine is the switch, so
// the engine NIC disappears and only the pipeline delay remains.
func (c *cluster) hopsE2C(n int, p4 bool) []hop {
	k := c.npkts(n)
	c.account(n, k, false)
	w := c.wireT(n + k*pktHeader)
	hops := make([]hop, 0, 4)
	if !p4 {
		hops = append(hops, hop{&c.engNICtx, c.msgGap})
	}
	return append(hops, hop{nil, c.swd()}, hop{&c.s2c, w}, hop{nil, c.lat()})
}

// hopsC2E: compute → engine.
func (c *cluster) hopsC2E(n int) []hop {
	k := c.npkts(n)
	c.account(n, k, true)
	w := c.wireT(n + k*pktHeader)
	return []hop{
		{&c.compNICtx, c.msgGap},
		{&c.c2s, w},
		{nil, c.swd() + c.lat()},
	}
}

// hopsE2P: engine → pool.
func (c *cluster) hopsE2P(n int, p4 bool) []hop {
	k := c.npkts(n)
	w := c.wireT(n + k*pktHeader)
	hops := make([]hop, 0, 4)
	if !p4 {
		hops = append(hops, hop{&c.engNICtx, c.msgGap})
	}
	return append(hops, hop{nil, c.swd()}, hop{&c.s2p, w}, hop{nil, c.lat()})
}

// hopsP2E: pool → engine.
func (c *cluster) hopsP2E(n int) []hop {
	k := c.npkts(n)
	w := c.wireT(n + k*pktHeader)
	return []hop{
		{&c.poolNICtx, c.msgGap},
		{&c.p2s, w},
		{nil, c.swd() + c.lat()},
	}
}

// concat joins hop chains.
func concat(chains ...[]hop) []hop {
	var out []hop
	for _, ch := range chains {
		out = append(out, ch...)
	}
	return out
}

// hopsOneSidedRead: a compute-issued one-sided read of n bytes, post→CQE.
func (c *cluster) hopsOneSidedRead(n int) []hop {
	return concat(
		c.hopsC2P(0),                    // read request
		[]hop{{&c.poolNICrx, c.msgGap}}, // responder turnaround
		c.hopsP2C(n),                    // response data
		[]hop{{&c.compNICrx, c.msgGap}}, // CQE generation
	)
}

// hopsOneSidedWrite: write + ACK round trip.
func (c *cluster) hopsOneSidedWrite(n int) []hop {
	return concat(
		c.hopsC2P(n),
		[]hop{{&c.poolNICrx, c.msgGap}},
		c.hopsP2C(0), // ACK
		[]hop{{&c.compNICrx, c.msgGap}},
	)
}

// completion is what a thread harvests.
type completion struct {
	issuedAt int64
}

// backend issues remote operations for a thread. Implementations charge
// issue-side CPU themselves and deliver completions to th.completions.
type backend interface {
	// issue starts one remote op (read unless isWrite) of n bytes.
	// Synchronous backends return only when the op is done (and deliver
	// the completion before returning).
	issue(p *sim.Proc, th *thread, n int, isWrite bool)
	// pollCPU is the harvest cost per completion.
	pollCPU() float64
}

// thread is one application thread.
type thread struct {
	c           *cluster
	id          int
	backend     backend
	completions *sim.Queue[completion]
	outstanding int
	commNS      int64
	latencies   []float64
	rng         *rand.Rand
}

// harvestReady drains available completions without blocking.
func (th *thread) harvestReady(p *sim.Proc) {
	for {
		cpl, ok := th.completions.TryGet()
		if !ok {
			return
		}
		th.retire(p, cpl)
	}
}

// harvestOne blocks for one completion.
func (th *thread) harvestOne(p *sim.Proc) {
	cpl, ok := th.completions.Get(p)
	if !ok {
		return
	}
	th.retire(p, cpl)
}

func (th *thread) retire(p *sim.Proc, cpl completion) {
	th.outstanding--
	th.latencies = append(th.latencies, float64(p.Now()-cpl.issuedAt))
	th.c.cpu(p, th.backend.pollCPU())
}

// appCost is the per-op application compute for the workload.
func (c *cluster) appCost() float64 {
	switch c.cfg.Workload {
	case HashProbe:
		return c.m.HashProbeCompute
	case FasterYCSB:
		return c.m.FasterOpBase + c.m.FasterCrossCoord*float64(c.cfg.Threads-1)
	case RawReads:
		return 40 // loop overhead only: raw dereferences
	}
	return 0
}

// run is the application thread body.
func (th *thread) run(p *sim.Proc) {
	c := th.c
	cfg := c.cfg
	for i := 0; i < cfg.OpsPerThread; i++ {
		c.cpu(p, c.appCost())
		if th.rng.Float64() >= cfg.RemoteFraction {
			// Local-memory portion of the working set.
			c.cpu(p, c.m.LocalAccess(cfg.RecordSize))
			th.harvestReady(p)
			continue
		}
		commStart := p.Now()
		if cfg.Workload == FasterYCSB {
			c.cpu(p, c.m.FasterIOWrap)
		}
		isWrite := th.rng.Float64() < cfg.WriteFraction
		th.backend.issue(p, th, cfg.RecordSize, isWrite)
		th.outstanding++
		th.harvestReady(p)
		for th.outstanding >= cfg.Window {
			th.harvestOne(p)
		}
		th.commNS += p.Now() - commStart
	}
	if f, ok := th.backend.(interface{ flush(*thread) }); ok {
		f.flush(th)
	}
	for th.outstanding > 0 {
		start := p.Now()
		th.harvestOne(p)
		th.commNS += p.Now() - start
	}
	c.remaining--
}

// Run executes one configuration and reports its metrics.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	e := sim.NewEngine()
	c := &cluster{
		e:       e,
		m:       cfg.Model,
		cfg:     cfg,
		poolCPU: newMultiStation(e, 8),
		ssd:     newMultiStation(e, 6),
		msgGap:  int64(1 / cfg.Model.RNICMsgRate),
	}
	for _, st := range []*station{
		&c.compNICtx, &c.compNICrx, &c.poolNICtx, &c.poolNICrx, &c.engNICtx,
		&c.c2s, &c.s2c, &c.p2s, &c.s2p, &c.redyIO, &c.engCPU, &c.aifmRT,
	} {
		st.e = e
	}
	runnable := cfg.Threads + cfg.ExtraThreads
	c.stretch = 1
	if runnable > cfg.Cores {
		c.stretch = float64(runnable) / float64(cfg.Cores)
	}

	be := newBackend(c)
	threads := make([]*thread, cfg.Threads)
	for i := range threads {
		th := &thread{
			c:           c,
			id:          i,
			backend:     be,
			completions: sim.NewQueue[completion](e),
			rng:         rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
		}
		threads[i] = th
		c.remaining++
		e.Go("thread", th.run)
	}
	if s, ok := be.(interface{ start() }); ok {
		s.start()
	}
	end := e.Run()
	if end == 0 {
		end = 1
	}

	totalOps := int64(cfg.Threads) * int64(cfg.OpsPerThread)
	var comm int64
	var lats []float64
	for _, th := range threads {
		comm += th.commNS
		lats = append(lats, th.latencies...)
	}
	sort.Float64s(lats)
	res := Result{
		ThroughputMOPS:   float64(totalOps) / float64(end) * 1e3,
		CommRatio:        float64(comm) / (float64(end) * float64(cfg.Threads)),
		BytesUpPerSec:    float64(c.bytesUp) / float64(end) * 1e9,
		BytesDownPerSec:  float64(c.bytesDown) / float64(end) * 1e9,
		PktsUpPerSec:     float64(c.pktsUp) / float64(end) * 1e9,
		PktsDownPerSec:   float64(c.pktsDown) / float64(end) * 1e9,
		ProbePktsPerSec:  float64(c.probePkts) / float64(end) * 1e9,
		ProbeBytesPerSec: float64(c.probeBytes) / float64(end) * 1e9,
		DurationNS:       end,
	}
	if len(lats) > 0 {
		res.LatencyP50 = lats[len(lats)/2]
		res.LatencyP99 = lats[int(math.Ceil(float64(len(lats))*0.99))-1]
	}
	return res
}
