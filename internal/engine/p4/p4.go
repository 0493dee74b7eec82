// Package p4 implements the Cowbird-P4 offload engine (§5 of the paper): a
// model of a Tofino-class RMT switch whose data plane executes the Cowbird
// protocol by generating RDMA probe packets and recycling the packets that
// flow back through it — probe responses become metadata fetches, read
// responses become RDMA writes, acknowledgments become bookkeeping updates.
//
// The engine attaches to the fabric as its Interposer, so every frame
// passes through Process exactly once, under the fabric's forwarding lock:
// the pipeline is a serialization point for all requests, which is what
// makes the §5.3 linearizability argument go through. The RMT restrictions
// the paper works around are preserved:
//
//   - no range queries: a write in Phase III Step 1b pauses ALL newly
//     probed reads (Cowbird-Spot, with a real CPU, pauses only overlapping
//     ones);
//   - no packet generation in the common path: every data-plane message
//     after Setup is a recycled incoming packet; only the probe generator
//     (a real Tofino packet-generation engine) creates packets from nothing;
//   - no recirculation: each transformation is single-pass.
//
// Control/data split (DESIGN.md §13): the data plane — everything reachable
// from Process — takes no lock of its own and is allocation-free at steady
// state. The control plane (Setup, and the host ePSN resets during recovery)
// never touches live per-request state; it publishes an immutable
// instance-table snapshot through an atomic.Pointer, exactly like a switch
// control plane writing match-action table entries while the pipeline keeps
// forwarding.
// Per-instance soft state (pending ops, request queues, PSN registers) is
// touched only inside Process, which the forwarding lock serializes.
package p4

import (
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/container"
	"cowbird/internal/core"
	"cowbird/internal/pace"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/telemetry"
	"cowbird/internal/wire"
)

// Switch-side protocol constants, fixed at Setup like the paper's
// control-plane RPC would.
const (
	// SwitchFirstPSN is the initial PSN for every switch-emulated QP.
	SwitchFirstPSN uint32 = 0x100000
	// switchQPNBase is the first emulated QPN; instances take consecutive
	// pairs (compute, pool).
	switchQPNBase uint32 = 0x8000
	// probeTOS and dataTOS are the DSCP priority markings: probes travel at
	// the lowest priority so they ride idle network cycles (§5.2).
	probeTOS uint8 = 0x00
	dataTOS  uint8 = 0x08
)

// Config tunes the engine.
type Config struct {
	// ProbeInterval is the per-probe pacing (the paper uses 1 probe per
	// 2 µs for FASTER). Probes are time-division multiplexed round-robin
	// across instances and queues (§5.4).
	ProbeInterval time.Duration
	// MTU must match the host NICs' RDMA MTU: the engine counts PSNs at
	// this MTU while the hosts segment at theirs. system.New sets it from
	// the deployment's NIC config.
	MTU int
	// Telemetry, when non-nil, samples request service time (metadata fetch
	// to Phase IV completion) into the stage histograms. Nil costs one
	// pointer check per request.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig matches the prototype's proportions.
func DefaultConfig() Config {
	return Config{
		ProbeInterval: 20 * time.Microsecond,
		MTU:           1024,
	}
}

// Stats counts data-plane activity. It is the snapshot type returned by
// Engine.Stats; the live counters are the per-field atomics of engineStats.
type Stats struct {
	ProbesSent       int64
	PacketsRecycled  int64 // incoming packets transformed into outgoing ones
	PacketsForwarded int64
	EntriesFetched   int64
	ReadsCompleted   int64
	WritesCompleted  int64
	ReadsPaused      int64 // reads held by the pause-all-reads rule
	Recoveries       int64 // Go-Back-N recoveries
	NAKs             int64
	RedWrites        int64
	GeneratorYields  int64 // generator ticks after a yield (hot)
	GeneratorWaits   int64 // generator ticks after a ProbeInterval timer wait (cold)
}

// engineStats is the live, atomic mirror of Stats, matching what spot's
// shard counters already do. The data plane increments fields without
// locking, and Stats() reads them the same way — a metrics scraper polling
// at any rate can never stall packet forwarding.
type engineStats struct {
	probesSent       atomic.Int64
	packetsRecycled  atomic.Int64
	packetsForwarded atomic.Int64
	entriesFetched   atomic.Int64
	readsCompleted   atomic.Int64
	writesCompleted  atomic.Int64
	readsPaused      atomic.Int64
	recoveries       atomic.Int64
	naks             atomic.Int64
	redWrites        atomic.Int64
}

// Endpoint describes one host-side QP the switch pairs with. ResetEPSN is
// the control-plane channel back to the host ("modifications ... of the
// channel also occur through this interface", §5.2 Phase I): it performs
// the QP-modify that resynchronizes the host's expected PSN during
// drain-based loss recovery. It must not be nil if recovery can occur.
type Endpoint struct {
	MAC wire.MAC
	IP  wire.IPv4Addr
	QPN uint32

	ResetEPSN func(psn uint32)
}

// Endpoints is the Setup payload's host half.
type Endpoints struct {
	Compute Endpoint
	Pool    Endpoint
}

// SwitchInfo tells the hosts which emulated QPs the switch answers on.
type SwitchInfo struct {
	ComputeQPN uint32 // peer QPN for the compute node's QP
	PoolQPN    uint32 // peer QPN for the pool's QP
	FirstPSN   uint32 // initial PSN of switch-generated requests
}

// request is one Cowbird request being executed by the data plane.
type request struct {
	entry  rings.Entry
	region core.RegionInfo
	q      *queueState
	seq    uint64 // per-type sequence number within its queue
	issued bool
	held   bool // parked in heldReads by the pause-all-reads rule
	reexec bool // re-issued by kick after a resync: its data write asks for an ACK
	done   bool
	t0     time.Time // metadata-arrival timestamp; zero unless sampled
}

// opKind classifies what an expected incoming packet means.
type opKind uint8

const (
	opProbeResp opKind = iota // read response carrying a green block
	opMetaResp                // read response carrying metadata entries
	opReadData                // pool read response carrying read-request data
	opWriteData               // compute read response carrying write payload
)

// pendingOp tracks an in-flight exchange: the switch sent a read request
// and expects npkts response packets with PSNs starting at firstPSN. This
// is the "hash table" of §5.2 Phase III; the data writes that end Phase III
// wait for their ACKs in the instance's ackRings instead.
type pendingOp struct {
	kind     opKind
	q        *queueState
	req      *request
	firstPSN uint32
	npkts    int
	received int
	// conversion state for multi-packet recycling
	outFirstPSN uint32 // pool/compute-side PSN of the first converted packet
	totalLen    uint32
}

// queueState is the per-queue register block.
type queueState struct {
	qi  core.QueueInfo
	red rings.Red // switch-local authoritative copy

	probeOutstanding bool
	fetchOutstanding bool

	// Phase IV coalescing register: requests issued and not yet completed,
	// and completions since the last red write (see complete).
	open, sinceRed int
	// Issued reads whose pool data, and issued writes whose payload, has
	// not all arrived: a data write asks for an ACK once the other reads or
	// writes of its queue have none on its way (Engine.awaitAck).
	readsWaiting, writesWaiting int

	// since is the queue's progress stamp on the engine clock (§5.3,
	// checkTimeouts). It is per queue because an instance's queues have
	// independent clients: one queue's completions must not hide another's
	// stuck exchange. progressed marks a completion since the last tick,
	// which stamps since with its own time: the engine clock moves only at
	// ticks, so a completion stamped with it would read early by up to the
	// gap between two ticks.
	since      time.Time
	progressed bool
	// rto is the queue's timeout, the estimator every rdma.QP uses, fed
	// with its probe round trips (probeAt is the outstanding probe's
	// departure on the engine clock) and backed off per timeout.
	rto     rdma.RTOEstimator
	probeAt time.Time

	// Requests fetched but not yet retired, in arrival order per type.
	// Ring FIFOs retire from the front without the allocator churn of
	// slice-shift queues.
	reads  container.Ring[*request]
	writes container.Ring[*request]

	readSeq  uint64 // issued read count
	writeSeq uint64
}

// psnState is a requester PSN register.
type psnState struct {
	next uint32
}

// ackRing holds one direction's converted data writes — read responses
// written to compute, write payloads written to the pool — that are not yet
// acknowledged, in PSN order (DESIGN.md §16, cumulative ACKs). A write asks
// for an ACK only now and then (Engine.awaitAck); the host's ACK for PSN n
// says that every request up to n has landed, as RC ordering guarantees, so
// it completes every waiting write up to n. uncovered counts the waiting
// writes behind the last one that asked for an ACK: no ACK asked for so far
// covers them.
type ackRing struct {
	writes    container.Ring[ackWait]
	uncovered int
}

// ackWait is a data write waiting for its ACK: the PSN of its last packet
// and the request it completes.
type ackWait struct {
	psn uint32
	req *request
}

// inst is one Cowbird instance (compute/pool pair) — §5.4. All fields below
// the Setup-time constants are soft state owned by Process; the control plane
// never touches them after publication.
type inst struct {
	id      int
	info    *core.Instance
	regions *core.RegionTable // dense region-ID lookup, built at Setup
	compute Endpoint
	pool    Endpoint

	swCompQPN uint32
	swPoolQPN uint32

	compPSN psnState
	poolPSN psnState

	queues []*queueState

	pendingComp map[uint32]*pendingOp // expected PSN (from compute) → op
	pendingPool map[uint32]*pendingOp

	// Data writes awaiting their ACKs: response writes to compute, payload
	// writes to the pool.
	ackComp, ackPool ackRing

	writesInFlight int        // writes between discovery and Step 2b issue
	heldReads      []*request // reads paused by the linearizability rule

	backlog int // un-issued, un-held requests awaiting a kick

	// Recovery state machine (§5.3): running → draining (ignore all
	// traffic for one timeout so stale in-flight packets die) → resyncing
	// (control-plane ePSN reset on both hosts) → running, re-executing
	// every incomplete request with fresh PSNs. PSN space is never reused,
	// so stale responses can never alias new operations.
	state      instState
	drainUntil time.Time
}

type instState uint8

const (
	stateRunning instState = iota
	stateDraining
	stateResyncing
)

type instRole struct {
	in          *inst
	fromCompute bool
}

// instTable is the COW snapshot the control plane publishes and the data
// plane loads once per frame: the instance list (for the probe generator and
// timeout check) plus a dense QPN-indexed routing array replacing the old
// byQPN map — sender resolution is a bounds check and an indexed load.
type instTable struct {
	instances []*inst
	route     []instRole // indexed by emulated QPN − switchQPNBase
}

// maxFreeObjs bounds the pendingOp and request free lists.
const maxFreeObjs = 4096

// Engine is the switch data plane plus its control plane.
type Engine struct {
	fabric *rdma.Fabric
	mac    wire.MAC
	ip     wire.IPv4Addr
	cfg    Config

	// Control plane: guards nextQPN and snapshot publication only. Never
	// taken by Process.
	ctlMu   sync.Mutex
	nextQPN uint32
	tbl     atomic.Pointer[instTable]

	stats engineStats // atomic: incremented and read without any lock

	// misses counts consecutive ticks that found no new metadata — an empty
	// probe, or nothing to probe — capped at hotMisses. Process writes it,
	// probeLoop reads it to choose its generator's rung.
	misses atomic.Int32
	gen    *pace.Waiter // the generator's idle ladder; only probeLoop waits on it

	tel       *telemetry.Telemetry
	sampleSeq atomic.Uint64 // drives 1-in-N request sampling

	// ctlDone carries instances whose control-plane host ePSN resets have
	// finished; the data plane drains it at tick time and resumes them.
	ctlDone chan *inst

	// Everything below is data-plane state, touched only inside Process,
	// which the fabric calls under its forwarding lock. No locks of its own.
	now             time.Time        // the engine clock: wall time of the latest generator tick
	clock           func() time.Time // reads the wall time: time.Now, or a test's frozen clock
	rrInst, rrQueue int              // TDM round-robin cursor (§5.4)
	rx, tx          wire.Packet      // reusable decoder/encoder
	out             [][]byte         // reusable Process return slice
	freeOp          []*pendingOp
	freeReq         []*request
	heldScratch     []*request
	redBuf          [rings.RedSize]byte

	tick     []byte // immutable generator-tick frame, built once
	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{} // closed by probeLoop
}

// New creates an engine. Install it with fabric.SetInterposer, then call
// Setup per instance and Run.
func New(f *rdma.Fabric, mac wire.MAC, ip wire.IPv4Addr, cfg Config) *Engine {
	if cfg.MTU <= 0 {
		cfg = DefaultConfig()
	}
	e := &Engine{
		fabric:  f,
		mac:     mac,
		ip:      ip,
		cfg:     cfg,
		tel:     cfg.Telemetry,
		nextQPN: switchQPNBase,
		clock:   time.Now,
		ctlDone: make(chan *inst, 16),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.gen = pace.New(e.stop, 0, 0)
	e.tbl.Store(&instTable{})
	e.misses.Store(hotMisses) // the generator starts cold
	e.tick = e.buildTickFrame()
	return e
}

// ReleasesFrames implements rdma.FrameReleaser: Process copies what it needs
// out of its input and builds every output in a Fabric.FrameBuf buffer, so no
// frame is referenced once it returns and the fabric may pool them all.
func (e *Engine) ReleasesFrames() {}

// MAC returns the switch's control MAC.
func (e *Engine) MAC() wire.MAC { return e.mac }

// IP returns the switch's control IP.
func (e *Engine) IP() wire.IPv4Addr { return e.ip }

// Stats snapshots the counters. It is lock-free: each field is an atomic
// load, so scraping never contends with the data plane. The snapshot is
// per-field consistent, not cross-field — the same contract spot's sharded
// stats already offer.
func (e *Engine) Stats() Stats {
	return Stats{
		ProbesSent:       e.stats.probesSent.Load(),
		PacketsRecycled:  e.stats.packetsRecycled.Load(),
		PacketsForwarded: e.stats.packetsForwarded.Load(),
		EntriesFetched:   e.stats.entriesFetched.Load(),
		ReadsCompleted:   e.stats.readsCompleted.Load(),
		WritesCompleted:  e.stats.writesCompleted.Load(),
		ReadsPaused:      e.stats.readsPaused.Load(),
		Recoveries:       e.stats.recoveries.Load(),
		NAKs:             e.stats.naks.Load(),
		RedWrites:        e.stats.redWrites.Load(),
		GeneratorYields:  e.gen.Yields(),
		GeneratorWaits:   e.gen.Blocks(),
	}
}

// RegisterMetrics exports the engine's counters as gauges on reg, for the
// -http observability endpoint. Closures read the same atomics as Stats().
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("cowbird_p4_probes_sent", e.stats.probesSent.Load)
	reg.Gauge("cowbird_p4_packets_recycled", e.stats.packetsRecycled.Load)
	reg.Gauge("cowbird_p4_packets_forwarded", e.stats.packetsForwarded.Load)
	reg.Gauge("cowbird_p4_entries_fetched", e.stats.entriesFetched.Load)
	reg.Gauge("cowbird_p4_reads_completed", e.stats.readsCompleted.Load)
	reg.Gauge("cowbird_p4_writes_completed", e.stats.writesCompleted.Load)
	reg.Gauge("cowbird_p4_reads_paused", e.stats.readsPaused.Load)
	reg.Gauge("cowbird_p4_recoveries", e.stats.recoveries.Load)
	reg.Gauge("cowbird_p4_naks", e.stats.naks.Load)
	reg.Gauge("cowbird_p4_red_writes", e.stats.redWrites.Load)
}

// Setup is the §5.2 Phase I control-plane RPC: it registers an instance
// ("the QP numbers; the current PSN for each QP; and the base memory
// addresses, remote keys, and total size of all registered memory regions")
// and allocates the switch-side register space — emulated QPNs and PSN
// registers. It returns what the hosts need to finish connecting.
//
// Setup is pure control plane: it builds the instance off to the side and
// publishes a new COW snapshot. The data plane picks the snapshot up on its
// next frame; until then, frames for the new QPNs are dropped and the
// host's Go-Back-N retransmit covers the gap — which is why a stale
// snapshot read is always safe.
func (e *Engine) Setup(info *core.Instance, eps Endpoints) (SwitchInfo, error) {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	in := &inst{
		id:          info.ID,
		info:        info,
		regions:     core.NewRegionTable(info.Regions),
		compute:     eps.Compute,
		pool:        eps.Pool,
		swCompQPN:   e.nextQPN,
		swPoolQPN:   e.nextQPN + 1,
		compPSN:     psnState{next: SwitchFirstPSN},
		poolPSN:     psnState{next: SwitchFirstPSN},
		pendingComp: make(map[uint32]*pendingOp),
		pendingPool: make(map[uint32]*pendingOp),
	}
	e.nextQPN += 2
	for _, qi := range info.Queues {
		in.queues = append(in.queues, &queueState{qi: qi})
	}
	old := e.tbl.Load()
	nt := &instTable{
		instances: make([]*inst, 0, len(old.instances)+1),
		route:     make([]instRole, e.nextQPN-switchQPNBase),
	}
	nt.instances = append(append(nt.instances, old.instances...), in)
	copy(nt.route, old.route)
	nt.route[in.swCompQPN-switchQPNBase] = instRole{in: in, fromCompute: true}
	nt.route[in.swPoolQPN-switchQPNBase] = instRole{in: in, fromCompute: false}
	e.tbl.Store(nt)
	return SwitchInfo{ComputeQPN: in.swCompQPN, PoolQPN: in.swPoolQPN, FirstPSN: SwitchFirstPSN}, nil
}

// Run starts the probe generator, whose ticks also drive the data-plane
// timeout check. Calls after the first do nothing.
func (e *Engine) Run() {
	if e.started.CompareAndSwap(false, true) {
		go e.probeLoop()
	}
}

// Stop halts the probe generator. It is safe before Run and more than once.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	if e.started.Load() {
		<-e.done
	}
}

// hotMisses is the generator's hot budget: until this many ticks in a row
// have found no new metadata, the generator follows each tick with a
// scheduler yield instead of a timer wait.
const hotMisses = 8

// probeLoop injects generator-tick frames at the pace of the work: while
// hot — a probe found new metadata within the last hotMisses ticks — each
// tick is followed by a yield, which lets the client that will refill the
// ring run before the next probe; once cold it blocks ProbeInterval on its
// waiter (the spot engine's yield → park ladder, DESIGN.md §7, on the other engine).
// The tick itself carries no protocol state: all PSN allocation and frame
// construction happen inside Process, under the fabric's forwarding lock,
// so switch-assigned PSNs reach each host in exactly allocation order —
// just as a real Tofino's packet-generation engine feeds blank packets into
// the match-action pipeline, which fills them from stateful registers.
func (e *Engine) probeLoop() {
	defer close(e.done)
	for {
		var live bool
		if e.misses.Load() < hotMisses {
			live = e.gen.Yield()
		} else {
			live = e.gen.Block(e.cfg.ProbeInterval)
		}
		if !live {
			return
		}
		// The tick frame is immutable and consumed by Process, and too
		// small for either class of the fabric's frame pool, so it is never
		// recycled: one shared buffer serves every tick.
		e.fabric.Send(e.tick)
	}
}

// etherTypeTick is the local-experimental EtherType marking generator
// ticks (frames from the switch to itself).
const etherTypeTick = 0x88B5

// buildTickFrame builds the generator-tick frame addressed to the switch
// itself.
func (e *Engine) buildTickFrame() []byte {
	f := make([]byte, wire.EthernetLen)
	copy(f[0:6], e.mac[:])
	copy(f[6:12], e.mac[:])
	f[12] = etherTypeTick >> 8
	f[13] = etherTypeTick & 0xff
	return f
}

// nextProbe emits the next probe frame under TDM round-robin, if any queue
// needs probing; a tick with nothing to probe counts as a miss.
func (e *Engine) nextProbe(t *instTable) {
	// Walk at most every (instance, queue) pair once.
	total := 0
	for _, in := range t.instances {
		total += len(in.queues)
	}
	for i := 0; i < total; i++ {
		in := t.instances[e.rrInst%len(t.instances)]
		q := in.queues[e.rrQueue%len(in.queues)]
		e.rrQueue++
		if e.rrQueue >= len(in.queues) {
			e.rrQueue = 0
			e.rrInst = (e.rrInst + 1) % len(t.instances)
		}
		if q.probeOutstanding || in.state != stateRunning {
			continue
		}
		if q.open == 0 && !q.fetchOutstanding {
			q.since = e.now // the probe is the queue's only exchange
		}
		q.probeOutstanding = true
		q.probeAt = e.now
		psn := e.allocPSNs(&in.compPSN, 1)
		op := e.getOp()
		*op = pendingOp{kind: opProbeResp, q: q, firstPSN: psn, npkts: 1}
		in.pendingComp[key(psn)] = op
		e.stats.probesSent.Add(1)
		e.emit(e.buildRead(in, true, psn, q.qi.BaseVA+uint64(q.qi.Layout.GreenOffset()), q.qi.RKey, rings.GreenSize, probeTOS))
		return
	}
	e.miss()
}

// miss records a tick that found no new metadata. Only Process writes
// misses, so a load and a store suffice.
func (e *Engine) miss() {
	if n := e.misses.Load(); n < hotMisses {
		e.misses.Store(n + 1)
	}
}

// allocPSNs reserves n consecutive PSNs from a requester register.
func (e *Engine) allocPSNs(ps *psnState, n int) uint32 {
	psn := ps.next
	ps.next += uint32(n)
	return psn
}

// npktsFor returns how many packets a length-byte RDMA message occupies.
func (e *Engine) npktsFor(length uint32) int {
	n := (int(length) + e.cfg.MTU - 1) / e.cfg.MTU
	if n == 0 {
		n = 1
	}
	return n
}

// chainRTTs is how many round trips a queue's longest exchange chain spans
// between two moves of its stamp (probe, metadata fetch, data fetch, the
// response write's ACK); each probe round trip is observed at this multiple.
const chainRTTs = 4

// timeout returns q's current timeout, backoff included, floored as every
// QP's is by default.
func (q *queueState) timeout() time.Duration { return q.rto.RTO(rdma.DefaultRTOFloor) }

// checkTimeouts drives §5.3 fault recovery, on the engine clock, at every
// tick. A running instance begins a drain once one of its queues has
// something outstanding — requests in flight, a probe or a metadata fetch —
// a progress stamp older than its timeout, and nothing unread at a host of
// the instance (rdma.Fabric.Queued); the expiry doubles that queue's
// timeout. Once a drain window ends, the resync is launched. The stamp
// moves when a probe goes out with nothing else outstanding, at the first
// tick after a request completes, and at every resync.
func (e *Engine) checkTimeouts(t *instTable) {
	for _, in := range t.instances {
		switch in.state {
		case stateRunning:
			for _, q := range in.queues {
				if q.progressed {
					q.since, q.progressed = e.now, false
				}
				if (q.open > 0 || q.probeOutstanding || q.fetchOutstanding) && e.now.Sub(q.since) >= q.timeout() {
					if e.fabric.Queued(in.compute.MAC, in.compute.QPN) || e.fabric.Queued(in.pool.MAC, in.pool.QPN) {
						continue // slow, not silent
					}
					q.rto.Expire()
					e.beginRecovery(in)
					break
				}
			}
		case stateDraining:
			if e.now.After(in.drainUntil) {
				e.startResync(in)
			}
		}
	}
}

// beginRecovery enters the drain phase, for the longest of the instance's
// queue timeouts without backoff: a backed-off queue has lost its own
// exchanges, and the drain only waits out the others'. Crucially, in-flight
// operations keep completing during the drain: PSN space is never reused,
// so every late response or ACK still maps to its true operation — chains
// unaffected by the loss retire normally, which is what keeps recovery
// making forward progress under sustained loss. Only NEW issues are gated
// until the resync.
func (e *Engine) beginRecovery(in *inst) {
	e.stats.recoveries.Add(1)
	in.state = stateDraining
	var drain time.Duration
	for _, q := range in.queues {
		drain = max(drain, q.rto.Base(rdma.DefaultRTOFloor))
	}
	in.drainUntil = e.now.Add(drain)
}

// resyncWindow bounds how many recovered requests are re-issued at once;
// completions refill the window (kick), so re-execution pipelines instead
// of bursting — a single further loss then costs one chain, not the whole
// batch.
const resyncWindow = 8

// startResync runs at drain expiry, on the data plane: it abandons whatever
// pendings remain, un-issues every incomplete request, and hands the
// instance to a control-plane goroutine for the host ePSN resets. The
// goroutine touches no engine state — it signals completion over ctlDone
// and the data plane resumes the instance at the next tick (finishResync).
// Splitting it this way keeps every mutation of instance soft state inside
// Process, so the data plane needs no lock of its own even across recovery.
func (e *Engine) startResync(in *inst) {
	in.state = stateResyncing
	clear(in.pendingComp)
	clear(in.pendingPool)
	in.ackComp.clear()
	in.ackPool.clear()
	in.writesInFlight = 0
	for _, r := range in.heldReads {
		r.held = false
	}
	in.heldReads = in.heldReads[:0]
	backlog := 0
	for _, q := range in.queues {
		q.probeOutstanding = false
		q.fetchOutstanding = false
		q.open, q.readsWaiting, q.writesWaiting = 0, 0, 0
		// Anything not done goes back to the un-issued backlog.
		for i := 0; i < q.writes.Len(); i++ {
			if r := *q.writes.At(i); !r.done {
				r.issued = false
				backlog++
			}
		}
		for i := 0; i < q.reads.Len(); i++ {
			if r := *q.reads.At(i); !r.done {
				r.issued = false
				backlog++
			}
		}
	}
	in.backlog = backlog
	compNext, poolNext := in.compPSN.next, in.poolPSN.next
	compReset, poolReset := in.compute.ResetEPSN, in.pool.ResetEPSN
	go func() {
		// Control-plane calls run outside Process: they take host QP locks,
		// which senders hold while they wait for the forwarding lock, so
		// making them inline would invert the lock order.
		if compReset != nil {
			compReset(compNext)
		}
		if poolReset != nil {
			poolReset(poolNext)
		}
		select {
		case e.ctlDone <- in:
		case <-e.stop:
		}
	}()
}

// finishResync resumes an instance whose host ePSN resets completed: it
// re-executes the incomplete backlog with fresh PSNs, writes first — the
// pause-all-reads rule then holds reads until the writes land, which
// preserves the paper's stated ordering guarantees (same-type order and
// read-after-write dependencies; write-after-read is not promised).
// Data-plane writes are idempotent and the red block carries absolute
// values, so re-execution is safe.
//
// It also republishes every queue's red bookkeeping block. This is what
// delivers completions whose Phase IV write was the lost packet, or was
// coalesced into a red write that the drain swallowed: the engine has
// already retired the request (progress counters advanced locally), so
// there is no backlog to re-execute and no completion left to piggyback the
// next red write on — without the republish the compute node would never
// learn the final progress and its poll would hang forever. Every queue's
// progress stamp restarts here: the drain and the resets are not a stall.
func (e *Engine) finishResync(in *inst) {
	in.state = stateRunning
	e.kick(in)
	for _, q := range in.queues {
		q.since = e.now
		e.redWrite(in, q)
	}
}

// kick issues un-issued backlog requests (writes first, per queue) up to
// the resync window, each marked reexec. Outside recovery the backlog
// counter is zero and the call is O(1): in normal operation requests are
// issued as their metadata is fetched, so there is nothing to scan.
func (e *Engine) kick(in *inst) {
	if in.state != stateRunning || in.backlog == 0 {
		return
	}
	budget := resyncWindow
	for _, q := range in.queues {
		budget -= q.open // the instance's issued, unfinished requests
	}
	if budget <= 0 {
		return
	}
	for _, q := range in.queues {
		for i := 0; i < q.writes.Len() && budget > 0 && in.backlog > 0; i++ {
			r := *q.writes.At(i)
			if r.done || r.issued || r.held {
				continue
			}
			r.reexec = true
			e.issueRequest(in, r)
			in.backlog--
			budget--
		}
		for i := 0; i < q.reads.Len() && budget > 0 && in.backlog > 0; i++ {
			r := *q.reads.At(i)
			if r.done || r.issued || r.held {
				continue
			}
			r.reexec = true
			e.issueRequest(in, r)
			in.backlog--
			budget--
		}
	}
}

// --- data-plane object pools -----------------------------------------------
//
// The pools are touched only inside Process; no synchronization. They are fed
// by retired requests/ops, and frame buffers come from the fabric's pool
// (Fabric.FrameBuf), which delivered and consumed frames refill, so at steady
// state the per-request path performs zero heap allocations no matter how
// many instances are registered.

func (e *Engine) getOp() *pendingOp {
	if n := len(e.freeOp); n > 0 {
		op := e.freeOp[n-1]
		e.freeOp = e.freeOp[:n-1]
		return op
	}
	return new(pendingOp)
}

func (e *Engine) putOp(op *pendingOp) {
	if len(e.freeOp) < maxFreeObjs {
		*op = pendingOp{}
		e.freeOp = append(e.freeOp, op)
	}
}

func (e *Engine) getReq() *request {
	if n := len(e.freeReq); n > 0 {
		r := e.freeReq[n-1]
		e.freeReq = e.freeReq[:n-1]
		return r
	}
	return new(request)
}

func (e *Engine) putReq(r *request) {
	if len(e.freeReq) < maxFreeObjs {
		*r = request{}
		e.freeReq = append(e.freeReq, r)
	}
}
