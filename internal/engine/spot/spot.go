// Package spot implements the Cowbird-Spot offload engine (§6 of the
// paper): an event-driven agent on a general-purpose processor (a spot VM,
// a SmartNIC ARM core, or a harvested-memory VM's management CPU) that
// executes the Cowbird protocol through ordinary host-level RDMA verbs.
//
// Per §6 it differs from Cowbird-P4 in two ways it can afford because it is
// a real processor with local memory:
//
//   - it batches up to BatchSize read responses in local memory and posts
//     them to the compute node as a single RDMA write, reducing load on the
//     compute node's RNIC and on the engine itself;
//   - it performs address-range overlap checks so that reads pause only
//     when they actually conflict with an in-flight write, instead of
//     pausing all reads as the switch must.
//
// The datapath is M workers × their queue slots. A worker is a goroutine
// owning one shard — a private completion queue, staging arena, WR-id space
// and scratch — and serving a copy-on-write list of queue slots (instance,
// queue set, QPs) in deficit-round-robin order, with per-slot probe pacing
// and one yield → park idle ladder. Config.Workers picks M: 0 gives
// every queue set a dedicated one-slot worker, n > 0 pins n workers that
// share the queue sets between them. A demultiplexer goroutine drains the
// one hardware send CQ and routes each completion to the shard that posted
// it (the shard index lives in the WR id's high bits). Registration,
// adoption and removal run on a control goroutine; adoption and removal
// stop the world through every worker's round lock, preserving the
// internal/ha takeover semantics.
package spot

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/pace"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/telemetry"
)

// Config tunes the agent.
type Config struct {
	// ProbeInterval paces green-block probes of a cold queue (see
	// idleYieldRounds): the first pacing step, and the floor of every later
	// one.
	ProbeInterval time.Duration
	// IdleQueueProbeInterval caps the exponential probe backoff of a cold
	// queue: its first paced miss waits ProbeInterval (so a tenant that just
	// went quiet pays microseconds, not the cap) and each further miss
	// doubles the wait up to the cap. A worker with no hot queue parks until
	// its earliest queue is due, so its park backs off with them. > 0 is an
	// explicit cap. 0 derives it from an idle budget: cold-queue probing may
	// take about an eighth of a worker, so the cap is the worker's queue
	// count × its smoothed probe time × 8 (never below ProbeInterval) — a
	// dedicated worker re-probes its one idle queue every ProbeInterval or
	// so, a worker carrying thousands of registered-but-idle tenants probes
	// each a few times a second, and neither needs tuning.
	IdleQueueProbeInterval time.Duration
	// BatchSize is the maximum read responses coalesced into one RDMA
	// write to the compute node. 1 disables batching (the "Cowbird
	// (batching disabled)" configuration of Figures 1 and 8).
	BatchSize int
	// MaxEntriesPerRound caps metadata entries fetched per queue visit.
	MaxEntriesPerRound int
	// StagingBytes sizes each shard's staging arena. Every worker, the
	// control shard (adoption reads) and the scrubber get their own arena
	// of this size.
	StagingBytes int
	// OpTimeout bounds any single RDMA completion wait.
	OpTimeout time.Duration
	// HeartbeatInterval bounds the engine's lease-renewal silence: a queue
	// whose red block has not been written for this long gets a
	// heartbeat-only bookkeeping write (busy queues renew for free with
	// their Phase IV pointer updates). The compute node's failure detector
	// (internal/ha) declares the engine dead when the heartbeat counter
	// stalls past its lease timeout, so the lease timeout must be a
	// multiple of this interval.
	HeartbeatInterval time.Duration
	// Workers is the number of datapath workers. 0 (the default) gives
	// every registered queue set a dedicated worker — run-to-completion on
	// the queue's own QPs when the instance was wired with QueueEndpoints.
	// n > 0 pins exactly n workers and assigns each new queue set to the
	// least-loaded one; a pinned worker serves its queue sets in
	// deficit-round-robin order through the instance-wide QPs, so the
	// engine's goroutine count stays bounded however many tenants register
	// (the fleet runs Workers = 1).
	Workers int
	// PoolHeartbeatInterval paces the liveness READs the engine issues to
	// every pool replica of a mirrored instance (Registration.Pools):
	// an 8-byte READ of the first region, piggybacked on the serving loop.
	// A heartbeat that exhausts its Go-Back-N retries marks the replica
	// dead — the detection path for an idle primary, whose death would
	// otherwise only surface on the next data-carrying round. Heartbeats
	// are only sent for instances with more than one replica, so
	// single-pool deployments see byte-identical traffic.
	PoolHeartbeatInterval time.Duration
	// ScrubInterval paces the background replica scrubber: every interval
	// the engine walks the replicated regions of every instance, compares
	// per-chunk CRC-32C checksums across live replicas, and repairs
	// divergent chunks from the fencing-current primary (DESIGN.md §14).
	// Zero (the default) disables the background loop; ScrubPass can still
	// be invoked synchronously. Single-replica instances are skipped, so
	// unreplicated deployments see byte-identical traffic either way.
	ScrubInterval time.Duration
	// ScrubChunk is the scrubber's checksum granularity in bytes. Zero
	// selects 64 KiB; the value is clamped so two chunks always fit the
	// staging arena (the repair path stages a primary and a suspect copy).
	ScrubChunk int
	// Telemetry, when non-nil, samples serve-round stage timings (probe,
	// fetch, execute, publish) 1-in-N rounds per shard and counts rounds
	// that served entries. Nil keeps the datapath exactly as before: one
	// pointer check per round.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig matches the paper's prototype proportions.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:         20 * time.Microsecond,
		BatchSize:             32,
		MaxEntriesPerRound:    64,
		StagingBytes:          4 << 20,
		OpTimeout:             10 * time.Second,
		HeartbeatInterval:     500 * time.Microsecond,
		PoolHeartbeatInterval: time.Millisecond,
	}
}

// idleYieldRounds is how many fruitless probes in a row a queue that served
// work stays hot for: probed on every pass, its worker yielding instead of
// parking (workerLoop), so a busy or briefly-idle queue never pays a timer
// wakeup. A newly registered queue starts cold.
const idleYieldRounds = 128

// Stats counts engine activity, for tests and overhead accounting.
type Stats struct {
	Probes          int64 // green-block reads issued
	EntriesServed   int64 // metadata entries executed
	ReadsExecuted   int64
	WritesExecuted  int64
	ResponseBatches int64 // RDMA writes of batched read responses
	ConflictStalls  int64 // batches split by the range-overlap check
	RedUpdates      int64 // Phase IV bookkeeping writes (incl. heartbeats)
	HeartbeatWrites int64 // heartbeat-only red writes (idle lease renewals)
	PoolHeartbeats  int64 // liveness READs issued to pool replicas
	PoolFailovers   int64 // primary-replica rotations after a pool death
	// ComputePathsDead counts queue sets this engine stopped serving because
	// the QP it reaches their compute node through went to the error state.
	ComputePathsDead int64
	ReplicaWrites    int64 // extra WRITE mirrors beyond the first replica
	ScrubPasses      int64 // completed full scrub passes
	ScrubChunks      int64 // chunks checksum-compared across replicas
	ScrubDivergent   int64 // chunks found (and confirmed) divergent
	ScrubRepairs     int64 // divergent chunks rewritten from the primary
	ReadRepairs      int64 // serve-path reads that repaired a divergent chunk
	WorkerYields     int64 // worker passes ended in a yield (a slot served or is hot)
	WorkerParks      int64 // worker passes ended parked on the worker's timer
}

// redSlot is the room a shard keeps ahead of its arena for the red block.
const redSlot = 64

// WR ids carry the owning shard in the high bits so the demultiplexer can
// route completions without any shared lookup state.
const (
	wrShardShift = 48
	wrSeqMask    = uint64(1)<<wrShardShift - 1
)

// shard is one slice of the engine's datapath: a completion queue, a
// private staging arena with its own MR, a private WR-id sequence, and
// private activity counters. Every worker owns one; the control shard
// (index 0) serves adoption reads and the scrubber has its own. Within a
// shard nothing is shared between goroutines, so the serve path runs
// lock-free and — after the first few rounds warm the reusable slices —
// allocation-free.
type shard struct {
	id int
	// cq is where the owner harvests completions: demuxCQ, unless the
	// shard serves one queue set over dedicated QPs, whose private send CQ
	// it then is. demuxCQ is the software CQ the demultiplexer feeds;
	// immutable, because the demultiplexer reads it with no lock.
	cq      *rdma.CQ
	demuxCQ *rdma.CQ
	wrSeq   atomic.Uint64
	arena   []byte
	arenaVA uint64
	// redBuf (at redVA) stages red-block writes, apart from the arena that
	// rounds hand out and reuse (writeRed).
	redBuf []byte
	redVA  uint64

	// Round-scoped scratch, reused across rounds.
	pending []pendingWR // in-flight WRs of the current wait
	ops     []op        // decoded entries of the current round
	run     []op        // response-batch run under construction
	cqeBuf  [64]rdma.CQE
	// timer is waitAll's completion-wait timeout. It is created with the
	// shard, not on first use: a worker may first block inside a window
	// somebody is measuring allocations over. It is armed by the first wait
	// that blocks and then left alone: timerArmed says a tick is still owed —
	// pending in the runtime or already sitting in timer.C — and the wait that
	// receives it re-arms for whatever its own deadline has left, so a wait
	// that ends in time touches no runtime timer at all.
	timer      *time.Timer
	timerArmed bool
	// waits counts completion waits (waitAll calls with work pending). Plain
	// field, read by tests only: only the owner touches it.
	waits int
	// probeTime is the smoothed duration of a green-block probe on this
	// shard, the unit of the idle budget (Config.IdleQueueProbeInterval).
	// Plain field: only the owner touches it.
	probeTime time.Duration

	// rounds drives 1-in-N stage-timing sampling. Plain counter: only the
	// owner touches it.
	rounds uint64

	stats shardCounters
}

// shardCounters are the per-shard halves of Stats. Plain atomics: the
// owning worker is the only writer, Stats() the only other reader.
type shardCounters struct {
	probes, entries, reads, writes  atomic.Int64
	batches, stalls, reds, hbWrites atomic.Int64
}

// conn names the QPs a serve round drives its queue through: the
// compute-node QP and one pool QP per replica of the instance (same order
// as instance.replicas). A slot normally carries the one instance-wide
// conn, whose completions arrive via the demultiplexer; a dedicated worker
// of an instance registered with QueueEndpoints gets the queue's private
// QPs, whose send CQ is the worker shard's own CQ, so the full request
// lifecycle — post, completion, harvest — runs on the worker goroutine with
// no cross-goroutine handoff and no per-QP lock sharing between shards.
type conn struct {
	computeQP *rdma.QP
	pools     []*rdma.QP
}

// slot is one queue set as a worker serves it: the queue, the QPs it is
// served through, and its scheduling state. A slot belongs to one worker
// for life, and only that worker's goroutine touches the scheduling fields.
type slot struct {
	inst *instance
	q    *queueState
	conn conn

	// deficit is the slot's deficit-round-robin balance (entries): a worker
	// sharing itself between slots tops it up by the tenant's quantum each
	// pass and a round consumes what it serves, so a backlogged tenant
	// drains at most its quantum per pass while its peers get theirs.
	deficit int
	// idle counts consecutive probes that found no work. Below
	// idleYieldRounds the slot is hot — due again on the very next pass;
	// from there on it is cold and nextProbe paces it, so a pass over
	// thousands of registered queues only pays RDMA rounds for the active
	// ones. A slot is born cold (idle = idleYieldRounds): registering a
	// tenant costs one probe, not a hot phase.
	idle      int
	nextProbe time.Time // zero: due now
	// dead is set once the slot's compute QP has failed a work request. An
	// RC QP never leaves the error state, so nothing posted for this slot
	// can succeed again: the worker stops probing it and stops renewing its
	// lease (the client's lease monitor then reports core.ErrEngineDead).
	// RemoveInstance + an adopting Register over fresh QPs is the way back.
	dead bool
}

// worker is one datapath goroutine: a shard and the slots it serves.
type worker struct {
	shard *shard
	// slots is the copy-on-write slot list. The control goroutine swaps it
	// (appends freely; removals only inside the quiesce barrier), the
	// worker loads it once per pass under its round lock.
	slots   atomic.Pointer[[]*slot]
	running bool // guarded by Engine.mu
	// wait is the worker's idle ladder, not the shard's: a retired worker may
	// still be parked on it while its shard serves another worker.
	wait *pace.Waiter

	// retired tells a dedicated worker its queue set was removed (live
	// migration). Set under the quiesce barrier while the worker's roundMu
	// is held, and checked by the worker after acquiring roundMu — so a
	// retired worker never touches its shard again, and the shard can go
	// back on the free list at once.
	retired atomic.Bool

	// roundMu serializes this worker's passes against the stop-the-world
	// barrier (quiesceWorkers). In steady state it is uncontended — only
	// the worker itself takes it, once per pass, on its own cache line —
	// so no datapath round takes a lock shared with another worker.
	roundMu sync.Mutex
}

// Engine is a running Cowbird-Spot agent.
type Engine struct {
	nic *rdma.NIC
	cfg Config
	tel *telemetry.Telemetry
	cq  *rdma.CQ // shared hardware send CQ; the demux drains it

	mu      sync.Mutex // guards workers, free and shard creation
	workers []*worker
	free    []*shard // shards of retired dedicated workers, for reuse
	nextVA  uint64

	// insts is the COW snapshot of the instance table (DESIGN.md §13). Only
	// the control goroutine publishes new snapshots (register/adopt/
	// remove); PoolDegraded, the scrubber and scrapes read it with a single
	// atomic load — no lock, no copy, no matter how many instances are
	// registered. The datapath never reads it: workers see slots.
	insts atomic.Pointer[instSnap]

	// ctlOps feeds the control goroutine, which serializes every metadata
	// mutation (register/adopt/remove, with the adoption reads on the
	// control shard) off the datapath.
	// Unbuffered: a submit either rendezvouses with the live control loop
	// or — after Stop — falls back to inline execution under ctlGate.
	ctlOps  chan func()
	ctlGate sync.Mutex

	// shards is the []*shard routing table, copy-on-write under e.mu and
	// read lock-free by the demultiplexer. shards[0] is the control shard,
	// which only the control goroutine (and tests driving rounds by hand on
	// an engine that is not running) may use.
	shards atomic.Value
	ctl    *shard

	// Spot-preemption injection (internal/ha tests): killAfter is the
	// number of further RDMA posts allowed before the engine "loses its
	// VM" (-1 = never). Once tripped, the engine stops posting mid-round —
	// no farewell bookkeeping write — exactly like a revoked spot instance.
	killAfter atomic.Int64
	preempted atomic.Bool

	// Fenced demotion (DESIGN.md §14): set when any WRITE of this engine is
	// NAKed with a stale fencing epoch — a standby was promoted over it.
	// Terminal like preemption, but semantically distinct: the engine was
	// deposed, not lost, and replicas it can still reach are NOT marked
	// dead (their state is authoritative under the new epoch holder).
	fenced atomic.Bool
	// The engine's current fencing epoch (SetFenceEpoch), kept so QPs wired
	// into the engine after the stamp — every later Register — inherit it
	// instead of presenting epoch 0 to already-fenced targets.
	fenceEpoch atomic.Uint32

	// Replica scrubber state: a dedicated shard (lazily created — scrub
	// I/O must not share an arena or pending set with adoption reads on
	// the control shard) and one-pass-at-a-time serialization.
	scrubShard *shard
	scrubMu    sync.Mutex

	// Scrub/read-repair counters (engine-level; scrub is paced and repairs
	// are rare, so none of these sit on the per-round hot path).
	scrubPasses    atomic.Int64
	scrubChunks    atomic.Int64
	scrubDivergent atomic.Int64
	scrubRepairs   atomic.Int64
	readRepairs    atomic.Int64

	// Replication counters (engine-level: failovers are rare and
	// heartbeats are paced, so these never sit on the per-round hot path).
	poolHeartbeats atomic.Int64
	poolFailovers  atomic.Int64
	replicaWrites  atomic.Int64
	// computePathsDead counts slots retired for a dead compute QP.
	computePathsDead atomic.Int64
	// retired workers' idle waits, so Stats stays monotonic (guarded by mu)
	retiredYields, retiredParks int64

	started  atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	// halt is closed by the first of Stop, preemption and fencing: the one
	// channel a serving goroutine waits on besides its own work, so a
	// blocking wait costs the datapath one shared channel, not three.
	halt     chan struct{}
	haltOnce sync.Once
	wg       sync.WaitGroup
}

// instSnap is one published instance-table snapshot. The slice is immutable
// after Store.
type instSnap struct {
	instances []*instance
}

type instance struct {
	info    *core.Instance
	regions *core.RegionTable // dense region-ID lookup for the serve path
	shared  conn              // instance-wide QPs: adoption reads, shared workers, scrub
	queues  []*queueState

	// Pool replication (§5.3 extension): the instance's regions are backed
	// by one or more pool nodes. Every WRITE is mirrored to all live
	// replicas before the red block publishes progress, so any surviving
	// replica holds every acked write; READs are served from the primary
	// and fail over when it dies. replicas is immutable after construction;
	// only the dead flags and the primary index move, so the serve path
	// reads them without locks. repMu serializes failover rotation.
	replicas []*replica
	primary  atomic.Int32
	repMu    sync.Mutex
	// nextPoolHB is the unix-nano deadline of the next pool heartbeat;
	// workers CAS it forward so exactly one of them heartbeats per interval.
	nextPoolHB atomic.Int64

	// Known-divergent chunk set, maintained by the scrubber and consumed by
	// the serve path's read-repair (DESIGN.md §14). divCount gates the hot
	// path: zero (the steady state) costs one atomic load per batch; the
	// map and its mutex are only touched while divergence is outstanding.
	divCount  atomic.Int64
	divMu     sync.Mutex
	divergent map[divKey]struct{}

	// homes, when non-nil, composes the instance's address space from
	// several memnodes instead of mirroring it: homes[regionID] lists the
	// replica indices hosting that region (Registration.Homes). READs go to
	// the region's first live home, WRITEs to all of its homes; the
	// mirror-everything invariants (scrub, read-repair, cross-replica
	// failover) do not apply. Immutable after construction.
	homes [][]int
	// allTargets is the precomputed 0..len(replicas)-1 index list, so the
	// mirrored (homes == nil) write path iterates the same shape as the
	// placed path without allocating.
	allTargets []int

	// qos, when non-nil, is the tenant's rate-limit/fair-share state
	// (SetTenantQoS). Swapped atomically so a running tenant can be retuned.
	qos atomic.Pointer[tenantQoSState]
}

// writeTargets returns the replica indices a WRITE to region must reach:
// the region's homes for a placed instance, every replica otherwise.
func (inst *instance) writeTargets(region uint16) []int {
	if inst.homes != nil {
		return inst.homes[region]
	}
	return inst.allTargets
}

// readReplica returns the replica index serving READs of region: the
// fencing-current primary for mirrored instances, the region's first live
// home for placed ones (falling back to the first home so the round's
// failure surfaces on the right QP).
func (inst *instance) readReplica(region uint16) int {
	if inst.homes == nil {
		return int(inst.primary.Load())
	}
	h := inst.homes[region]
	for _, ri := range h {
		if !inst.replicas[ri].dead.Load() {
			return ri
		}
	}
	return h[0]
}

// divKey names one scrub chunk of one region of an instance.
type divKey struct {
	region uint16
	chunk  uint32 // chunk index: region-relative offset / ScrubChunk
}

// markDivergent records a chunk as divergent across replicas.
func (inst *instance) markDivergent(k divKey) {
	inst.divMu.Lock()
	defer inst.divMu.Unlock()
	if inst.divergent == nil {
		inst.divergent = make(map[divKey]struct{})
	}
	if _, ok := inst.divergent[k]; !ok {
		inst.divergent[k] = struct{}{}
		inst.divCount.Add(1)
	}
}

// clearDivergent removes a repaired chunk from the divergent set.
func (inst *instance) clearDivergent(k divKey) {
	inst.divMu.Lock()
	defer inst.divMu.Unlock()
	if _, ok := inst.divergent[k]; ok {
		delete(inst.divergent, k)
		inst.divCount.Add(-1)
	}
}

// rangeDivergent reports whether [off, off+n) of region overlaps a chunk
// currently marked divergent. Callers gate on divCount first.
func (inst *instance) rangeDivergent(region uint16, off, n uint64, chunk uint32) bool {
	if chunk == 0 {
		return false
	}
	inst.divMu.Lock()
	defer inst.divMu.Unlock()
	lo := uint32(off / uint64(chunk))
	hi := uint32((off + n - 1) / uint64(chunk))
	for c := lo; c <= hi; c++ {
		if _, ok := inst.divergent[divKey{region: region, chunk: c}]; ok {
			return true
		}
	}
	return false
}

// replica is one pool node backing an instance. Region descriptors are
// per-replica: each pool node registered its own copy of every region, so
// bases and rkeys may differ node to node. The QPs reaching the node live
// in conns (instance.shared plus any per-queue dedicated conns), not here:
// liveness and priority are properties of the node, which every conn to it
// shares.
type replica struct {
	regions *core.RegionTable // dense region-ID-indexed, immutable
	dead    atomic.Bool
}

// PoolReplica describes one pool node backing an instance: the engine-side
// QP connected to that node and the node's own descriptors for the regions
// of the instance it hosts.
type PoolReplica struct {
	QP      *rdma.QP
	Regions []core.RegionInfo
}

// translate maps an address expressed in the registered (client-facing)
// region reg to this replica's copy of the region. The dense table lookup
// is a bounds check and an indexed load — O(1) with no map hashing on the
// per-request path.
func (r *replica) translate(reg core.RegionInfo, va uint64) (uint64, uint32, error) {
	rr, ok := r.regions.Lookup(reg.ID)
	if !ok {
		return 0, 0, fmt.Errorf("spot: replica lacks region %d", reg.ID)
	}
	return va - reg.Base + rr.Base, rr.RKey, nil
}

type queueState struct {
	qi core.QueueInfo
	// red is the engine's copy of the red block: what the last completed red
	// write published (or adoption read back), never ahead of it.
	red     rings.Red
	lastRed time.Time // when the red block (and thus the lease) last renewed
	// lastFound is how many entries the queue's last probe found to serve: the
	// next round fetches that many speculatively, behind its probe.
	lastFound int
}

// New creates an idle engine on nic. Call Register, then Run. The
// completion demultiplexer starts immediately so that adoption reads on a
// not-yet-Run standby engine complete; Stop shuts it down.
func New(nic *rdma.NIC, cfg Config) *Engine {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.MaxEntriesPerRound <= 0 {
		cfg.MaxEntriesPerRound = 64
	}
	if cfg.StagingBytes <= 0 {
		cfg.StagingBytes = 4 << 20
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Microsecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 20 * time.Microsecond
	}
	if cfg.ScrubChunk <= 0 {
		cfg.ScrubChunk = 64 << 10
	}
	// The repair path stages a primary and a suspect copy of one chunk at
	// the same time, so two chunks must fit the scrub shard's arena.
	if cfg.ScrubChunk > cfg.StagingBytes/2 {
		cfg.ScrubChunk = cfg.StagingBytes / 2
	}
	e := &Engine{
		nic:    nic,
		cfg:    cfg,
		tel:    cfg.Telemetry,
		cq:     rdma.NewCQ(),
		nextVA: 0x7000_0000,
		ctlOps: make(chan func()),
		stop:   make(chan struct{}),
		halt:   make(chan struct{}),
	}
	e.killAfter.Store(-1)
	e.insts.Store(&instSnap{})
	e.ctl = e.takeShardLocked(nil)
	for i := 0; i < cfg.Workers; i++ {
		e.workers = append(e.workers, e.newWorkerLocked(nil))
	}
	e.wg.Add(2)
	go e.demux()
	go e.ctlLoop()
	return e
}

// ctlLoop is the control goroutine: the single place instance-table
// mutations execute, so publications are serialized without any datapath
// lock. On stop it drains already-queued ops before exiting, so no
// submitter is stranded.
func (e *Engine) ctlLoop() {
	defer e.wg.Done()
	for {
		select {
		case fn := <-e.ctlOps:
			e.ctlGate.Lock()
			fn()
			e.ctlGate.Unlock()
		case <-e.stop:
			for {
				select {
				case fn := <-e.ctlOps:
					e.ctlGate.Lock()
					fn()
					e.ctlGate.Unlock()
				default:
					return
				}
			}
		}
	}
}

// runCtl executes fn on the control goroutine and waits for it. After Stop
// the loop is gone, so fn runs inline under the same gate — control ops on
// a stopped engine (tests, teardown paths) still work, just without the
// goroutine hop.
func (e *Engine) runCtl(fn func()) {
	done := make(chan struct{})
	wrapped := func() { fn(); close(done) }
	select {
	case e.ctlOps <- wrapped:
		<-done
	case <-e.stop:
		e.ctlGate.Lock()
		fn()
		e.ctlGate.Unlock()
	}
}

// takeShardLocked hands out a shard: one parked on the free list by a
// retired worker if there is any, else a new one, whose staging arena it
// allocates and registers and which it publishes in the routing table. The
// NIC cannot deregister an MR, so reuse is what keeps migrate-in/migrate-out
// cycles from growing the arena set without bound. A non-nil cq makes that
// CQ the shard's completion queue — the dedicated-wiring case, where the
// queue's own QPs complete straight into it and the demultiplexer never
// touches the shard's traffic. Caller holds e.mu (or is New).
func (e *Engine) takeShardLocked(cq *rdma.CQ) *shard {
	var s *shard
	if n := len(e.free); n > 0 {
		s, e.free = e.free[n-1], e.free[:n-1]
	} else {
		old := e.shardList()
		s = &shard{id: len(old), demuxCQ: rdma.NewCQ(), timer: time.NewTimer(time.Hour)}
		s.timer.Stop() // cannot have fired: nothing to drain
		// One registration: the red slot, then the arena.
		buf := make([]byte, redSlot+e.cfg.StagingBytes)
		e.nic.RegisterMR(e.nextVA, buf)
		s.redVA, s.redBuf = e.nextVA, buf[:rings.RedSize]
		s.arenaVA, s.arena = e.nextVA+redSlot, buf[redSlot:]
		e.nextVA += uint64(len(buf))
		e.shards.Store(append(slices.Clip(old), s))
	}
	s.cq = cq
	if cq == nil {
		s.cq = s.demuxCQ
	}
	return s
}

// newWorkerLocked creates a worker with no slots on a shard of its own.
// Caller holds e.mu (or is New).
func (e *Engine) newWorkerLocked(cq *rdma.CQ) *worker {
	w := &worker{shard: e.takeShardLocked(cq), wait: pace.New(e.halt, 0, 0)}
	w.slots.Store(new([]*slot))
	return w
}

func (e *Engine) shardList() []*shard {
	l, _ := e.shards.Load().([]*shard)
	return l
}

// demux drains the shared hardware send CQ and routes every completion to
// the software CQ of the shard that posted it, keyed by the WR id's high
// bits. Workers then wait only on their own completions, so serving rounds
// need no global lock.
func (e *Engine) demux() {
	defer e.wg.Done()
	var buf [64]rdma.CQE
	for {
		n := e.cq.PollInto(buf[:])
		if n > 0 {
			shards := e.shardList()
			for _, c := range buf[:n] {
				if c.Status == rdma.StatusFenced {
					// Demotion happens here, at the one point every
					// completion passes through: a fenced NAK may arrive on
					// a QP whose shard already abandoned the WR and errored
					// (the zombie-primary case — the retransmission outlived
					// the partition), so no waitAll may ever harvest it.
					e.tripFenced()
				}
				if idx := int(c.WRID >> wrShardShift); idx < len(shards) {
					shards[idx].demuxCQ.Push(c)
				}
			}
			continue
		}
		select {
		case <-e.stop:
			return
		case <-e.cq.Notify():
		}
	}
}

// CQ returns the engine's send completion queue, for QP creation.
func (e *Engine) CQ() *rdma.CQ { return e.cq }

// NIC returns the engine's NIC.
func (e *Engine) NIC() *rdma.NIC { return e.nic }

// QueueEndpoints carries one queue set's dedicated datapath QPs. SendCQ must
// be the send completion queue of ComputeQP and of every pool QP — it
// becomes the queue worker's private CQ, so the worker harvests its own
// completions directly instead of receiving them from the shared-CQ
// demultiplexer. Pools holds one connected QP per entry of
// Registration.Pools, in the same order.
type QueueEndpoints struct {
	SendCQ    *rdma.CQ
	ComputeQP *rdma.QP
	Pools     []*rdma.QP
}

// Registration is the engine's half of Phase I Setup for one compute node:
// the instance, the connected QPs on this engine's NIC that reach it and its
// pool nodes, and how its address space is laid out over those nodes.
type Registration struct {
	Instance *core.Instance
	// ComputeQP and Pools[i].QP are the instance-wide QPs (adoption reads,
	// shared workers, scrub); their send CQ must be e.CQ().
	ComputeQP *rdma.QP
	// Pools lists the pool nodes backing the instance. With Homes nil they
	// are mirrors in priority order, Pools[0] the first primary: every one
	// must host a copy of every region of the instance (same id and size;
	// base and rkey may differ per node), every WRITE goes to all live
	// replicas before progress is published, and READs are served from the
	// primary, failing over to the next live replica when it dies — detected
	// by Go-Back-N retry exhaustion on a data op or on a paced heartbeat READ
	// (Config.PoolHeartbeatInterval).
	Pools []PoolReplica
	// Queues, when non-nil, brings every queue set its own QPs (one to the
	// compute node, one per entry of Pools), making a dedicated worker's
	// request lifecycle run to completion on its own goroutine: post on
	// private QPs, complete into the private CQ, harvest locally — no
	// demultiplexer hop and no per-QP lock shared with another shard. One
	// entry per queue of Instance. A pinned worker (Config.Workers > 0) is
	// not dedicated to any one queue: the engine accepts the endpoints but
	// serves through the instance-wide QPs.
	Queues []QueueEndpoints
	// Homes, when non-nil, composes the address space from the pool nodes
	// instead of mirroring it across them: Homes[regionID] names the indices
	// into Pools hosting that region (the fleet directory's placement). READs
	// and WRITEs of a region go only to its homes; there is no cross-node
	// mirroring, scrub or read-repair, heartbeat failover still marks dead
	// nodes.
	Homes [][]int
	// Adopt rebuilds the queue state from the durable red blocks instead of
	// starting from zeroed pointers: the HA takeover and the fleet's
	// queue-set migration (see readRedBlocks for why the replay is
	// exactly-once). The adoption reads run on the control goroutine, on the
	// control shard, under the stop-the-world barrier, so adoption never
	// interleaves with a serve round even on a running engine.
	Adopt bool
}

// Register validates r, builds the instance and hands it to the control
// goroutine, which — for an adoption, inside the stop-the-world barrier —
// reads the red blocks back, publishes the new instance-table snapshot and
// gives every queue set a slot on a worker. The queue sets are served from
// their worker's next pass on (workers start at once if the engine is
// already running, so instances can be registered live). Nothing is
// registered when an error is returned.
func (e *Engine) Register(r Registration) error {
	if r.Queues != nil {
		if len(r.Queues) != len(r.Instance.Queues) {
			return fmt.Errorf("spot: register: %d queue endpoints for %d queues", len(r.Queues), len(r.Instance.Queues))
		}
		for i, qe := range r.Queues {
			if qe.SendCQ == nil || qe.ComputeQP == nil || len(qe.Pools) != len(r.Pools) {
				return fmt.Errorf("spot: register: queue %d endpoints incomplete (%d pool QPs for %d replicas)", i, len(qe.Pools), len(r.Pools))
			}
		}
	}
	if r.Homes != nil {
		if err := validateHomes(r.Instance, r.Pools, r.Homes); err != nil {
			return err
		}
	}
	if r.Adopt && e.preempted.Load() {
		return ErrPreempted
	}
	inst := &instance{info: r.Instance, regions: core.NewRegionTable(r.Instance.Regions), shared: conn{computeQP: r.ComputeQP}, homes: r.Homes}
	for i, pr := range r.Pools {
		inst.replicas = append(inst.replicas, &replica{regions: core.NewRegionTable(pr.Regions)})
		inst.shared.pools = append(inst.shared.pools, pr.QP)
		inst.allTargets = append(inst.allTargets, i)
	}
	for _, qi := range r.Instance.Queues {
		inst.queues = append(inst.queues, &queueState{qi: qi})
	}
	// QPs wired after a SetFenceEpoch inherit the engine's epoch, or their
	// first write would NAK against the already-raised floors.
	e.stampConn(inst.shared)
	for _, qe := range r.Queues {
		e.stampConn(conn{computeQP: qe.ComputeQP, pools: qe.Pools})
	}
	var err error
	e.runCtl(func() {
		if r.Adopt {
			// No serve round may interleave with the reconstruction, and the
			// slots must not be served before every red block is read back.
			defer e.quiesceWorkers()()
			if err = e.readRedBlocks(inst); err != nil {
				return
			}
		}
		old := e.insts.Load().instances
		e.insts.Store(&instSnap{instances: append(slices.Clip(old), inst)})
		e.mu.Lock()
		defer e.mu.Unlock()
		e.placeLocked(inst, r.Queues)
	})
	return err
}

// placeLocked gives every queue set of inst a slot on a worker. With pinned
// workers it is the least-loaded one, served through the instance-wide
// conn. Otherwise the slot gets a dedicated new worker, which — given
// QueueEndpoints — serves it through the queue's own QPs with their send CQ
// as the shard's completion queue. Caller holds e.mu, on the control
// goroutine.
func (e *Engine) placeLocked(inst *instance, eps []QueueEndpoints) {
	for i, q := range inst.queues {
		sl := &slot{inst: inst, q: q, conn: inst.shared, idle: idleYieldRounds}
		var w *worker
		if e.cfg.Workers > 0 {
			w = slices.MinFunc(e.workers, func(a, b *worker) int {
				return len(*a.slots.Load()) - len(*b.slots.Load())
			})
		} else {
			var cq *rdma.CQ
			if eps != nil {
				sl.conn = conn{computeQP: eps[i].ComputeQP, pools: eps[i].Pools}
				cq = eps[i].SendCQ
			}
			w = e.newWorkerLocked(cq)
			e.workers = append(e.workers, w)
		}
		slots := append(slices.Clip(*w.slots.Load()), sl)
		w.slots.Store(&slots)
	}
	if e.started.Load() {
		e.startWorkersLocked()
	}
}

// PoolDegraded reports whether any pool replica of any instance has been
// declared dead. The compute node's client surfaces this through
// core.ErrPoolDegraded (Client.SetPoolHealth) as an advisory: ops still
// complete off the surviving replicas, but redundancy is gone until an
// operator re-provisions the pool. Lock-free: it walks the published COW
// snapshot, so health polls never contend with registration or serving.
func (e *Engine) PoolDegraded() bool {
	for _, inst := range e.insts.Load().instances {
		for _, r := range inst.replicas {
			if r.dead.Load() {
				return true
			}
		}
	}
	return false
}

// markReplicaDead records a pool replica death and, if the dead replica was
// the primary, rotates the primary to the next live replica (the failover).
// Idempotent and safe from any worker.
func (e *Engine) markReplicaDead(inst *instance, idx int) {
	inst.replicas[idx].dead.Store(true)
	inst.repMu.Lock()
	defer inst.repMu.Unlock()
	if int(inst.primary.Load()) != idx {
		return
	}
	for j, r := range inst.replicas {
		if !r.dead.Load() {
			inst.primary.Store(int32(j))
			e.poolFailovers.Add(1)
			return
		}
	}
	// No replica left alive: leave the primary in place; every round will
	// keep failing until a pool is re-provisioned, exactly like the
	// pre-replication single-pool behavior.
}

// notePoolFailure classifies a serve-round error: if it is a WR failure on
// one of the pool QPs of c (or of the instance's shared conn — heartbeats
// post there), the corresponding replica is declared dead and the primary
// rotated. A compute-QP failure is the caller's to classify
// (computePathDead); timeouts retry at probe pace.
func (e *Engine) notePoolFailure(inst *instance, c conn, err error) {
	var wf *wrFailure
	if !errors.As(err, &wf) {
		return
	}
	if wf.st == rdma.StatusFenced {
		// A fenced NAK is not a replica death: the replica is alive and its
		// state is authoritative under the NEW epoch holder. It is this
		// engine that is finished — demote it instead of rotating replicas.
		e.tripFenced()
		return
	}
	for _, pools := range [][]*rdma.QP{c.pools, inst.shared.pools} {
		for i, qp := range pools {
			if qp.QPN() == wf.qpn {
				e.markReplicaDead(inst, i)
				return
			}
		}
	}
}

// maybePoolHeartbeat issues one 8-byte liveness READ to every live replica
// of a replicated instance when the heartbeat interval has elapsed at now.
// The CAS on nextPoolHB elects exactly one heartbeater per interval across
// the instance's slots; the elected worker posts on its own conn's pool
// QPs, so even heartbeats stay off shared QPs under dedicated wiring. A
// heartbeat that fails through retry exhaustion declares the replica dead —
// the idle-primary detection path. Caller holds its round lock, like any
// other RDMA round.
func (e *Engine) maybePoolHeartbeat(s *shard, c conn, inst *instance, now time.Time) {
	iv := e.cfg.PoolHeartbeatInterval
	if iv <= 0 || len(inst.replicas) < 2 || len(inst.info.Regions) == 0 {
		return
	}
	next := inst.nextPoolHB.Load()
	if now.UnixNano() < next || !inst.nextPoolHB.CompareAndSwap(next, now.Add(iv).UnixNano()) {
		return
	}
	reg := inst.info.Regions[0]
	for idx, r := range inst.replicas {
		if r.dead.Load() {
			continue
		}
		va, rkey, err := r.translate(reg, reg.Base)
		if err != nil {
			continue
		}
		ar := arenaAlloc{s: s}
		hbVA, _, _ := ar.alloc(8)
		e.poolHeartbeats.Add(1)
		err = e.postAndWait(s, c.pools[idx], rdma.WorkRequest{
			Verb: rdma.VerbRead, LocalVA: hbVA, Length: 8, RemoteVA: va, RKey: rkey,
		})
		if err != nil && !errors.Is(err, ErrPreempted) && !errors.Is(err, errTimeout) {
			if isFencedFailure(err) {
				e.tripFenced()
				return
			}
			e.markReplicaDead(inst, idx)
		}
	}
}

// quiesceWorkers stops the world between passes: it acquires every
// worker's round lock, in worker-creation order, and returns the matching
// release. Workers never take another round lock, so the ordering here
// cannot deadlock against the datapath.
func (e *Engine) quiesceWorkers() func() {
	e.mu.Lock()
	ws := slices.Clone(e.workers)
	e.mu.Unlock()
	for _, w := range ws {
		w.roundMu.Lock()
	}
	return func() {
		for _, w := range ws {
			w.roundMu.Unlock()
		}
	}
}

// startWorkersLocked launches every not-yet-running worker. Caller holds
// e.mu.
func (e *Engine) startWorkersLocked() {
	if e.halted() {
		return
	}
	for _, w := range e.workers {
		if w.running {
			continue
		}
		w.running = true
		e.wg.Add(1)
		go e.workerLoop(w)
	}
}

// Stats returns a snapshot of the activity counters, aggregated across
// every shard.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, s := range e.shardList() {
		st.Probes += s.stats.probes.Load()
		st.EntriesServed += s.stats.entries.Load()
		st.ReadsExecuted += s.stats.reads.Load()
		st.WritesExecuted += s.stats.writes.Load()
		st.ResponseBatches += s.stats.batches.Load()
		st.ConflictStalls += s.stats.stalls.Load()
		st.RedUpdates += s.stats.reds.Load()
		st.HeartbeatWrites += s.stats.hbWrites.Load()
	}
	st.PoolHeartbeats = e.poolHeartbeats.Load()
	st.PoolFailovers = e.poolFailovers.Load()
	st.ComputePathsDead = e.computePathsDead.Load()
	st.ReplicaWrites = e.replicaWrites.Load()
	st.ScrubPasses = e.scrubPasses.Load()
	st.ScrubChunks = e.scrubChunks.Load()
	st.ScrubDivergent = e.scrubDivergent.Load()
	st.ScrubRepairs = e.scrubRepairs.Load()
	st.ReadRepairs = e.readRepairs.Load()
	e.mu.Lock()
	st.WorkerYields, st.WorkerParks = e.retiredYields, e.retiredParks
	for _, w := range e.workers {
		st.WorkerYields += w.wait.Yields()
		st.WorkerParks += w.wait.Blocks()
	}
	e.mu.Unlock()
	return st
}

// RegisterMetrics exports the engine's counters as gauges on reg, for the
// -http observability endpoint. Each closure aggregates the shard atomics
// lazily at scrape time — nothing is added to the serve path.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	field := func(pick func(*shardCounters) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, s := range e.shardList() {
				total += pick(&s.stats)
			}
			return total
		}
	}
	reg.Gauge("cowbird_spot_probes", field(func(c *shardCounters) int64 { return c.probes.Load() }))
	reg.Gauge("cowbird_spot_entries_served", field(func(c *shardCounters) int64 { return c.entries.Load() }))
	reg.Gauge("cowbird_spot_reads_executed", field(func(c *shardCounters) int64 { return c.reads.Load() }))
	reg.Gauge("cowbird_spot_writes_executed", field(func(c *shardCounters) int64 { return c.writes.Load() }))
	reg.Gauge("cowbird_spot_response_batches", field(func(c *shardCounters) int64 { return c.batches.Load() }))
	reg.Gauge("cowbird_spot_conflict_stalls", field(func(c *shardCounters) int64 { return c.stalls.Load() }))
	reg.Gauge("cowbird_spot_red_updates", field(func(c *shardCounters) int64 { return c.reds.Load() }))
	reg.Gauge("cowbird_spot_heartbeat_writes", field(func(c *shardCounters) int64 { return c.hbWrites.Load() }))
	reg.Gauge("cowbird_spot_pool_heartbeats", e.poolHeartbeats.Load)
	reg.Gauge("cowbird_spot_pool_failovers", e.poolFailovers.Load)
	reg.Gauge("cowbird_spot_compute_paths_dead", e.computePathsDead.Load)
	reg.Gauge("cowbird_spot_replica_writes", e.replicaWrites.Load)
	reg.Gauge("cowbird_spot_scrub_passes", e.scrubPasses.Load)
	reg.Gauge("cowbird_spot_scrub_chunks", e.scrubChunks.Load)
	reg.Gauge("cowbird_spot_scrub_divergent", e.scrubDivergent.Load)
	reg.Gauge("cowbird_spot_scrub_repairs", e.scrubRepairs.Load)
	reg.Gauge("cowbird_spot_read_repairs", e.readRepairs.Load)
	reg.Gauge("cowbird_spot_fenced", func() int64 {
		if e.fenced.Load() {
			return 1
		}
		return 0
	})
}

// Run starts the agent. Stop it with Stop. A standby engine is created but
// not Run until promotion, so Run is idempotent.
func (e *Engine) Run() {
	if e.started.Swap(true) {
		return
	}
	if e.cfg.ScrubInterval > 0 {
		e.wg.Add(1)
		go e.scrubLoop()
	}
	e.mu.Lock()
	e.startWorkersLocked()
	e.mu.Unlock()
}

// Stop halts the agent — workers, control goroutine, and demultiplexer —
// waits for them to exit, and releases the shards' reusable wait timers
// (without the explicit Stop a timer left armed by a wait would keep its
// runtime entry live until it fired). Safe to call on a never-Run engine and
// to call repeatedly.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.tripHalt()
	e.wg.Wait()
	// The owning goroutines have exited (wg.Wait is the happens-before
	// edge), so their timers are safe to stop from here.
	for _, s := range e.shardList() {
		s.timer.Stop()
		s.timerArmed = false
	}
}

// PreemptAfter arms preemption injection: the engine dies immediately
// before its nth subsequent RDMA post (n=0 kills the very next one).
// Because every protocol phase — probe, metadata fetch, data transfer,
// response batch, bookkeeping write, heartbeat — is a post, sweeping n
// preempts the engine at every distinct protocol point. The posts of all
// workers draw from one budget, as all of a VM's threads die together.
func (e *Engine) PreemptAfter(n int64) { e.killAfter.Store(n) }

// Preempt simulates an immediate spot-instance revocation: no further RDMA
// work is issued and the serving goroutines exit without a farewell
// bookkeeping write.
func (e *Engine) Preempt() { e.tripPreempt() }

// Preempted reports whether the engine has been revoked.
func (e *Engine) Preempted() bool { return e.preempted.Load() }

func (e *Engine) tripPreempt() {
	e.preempted.Store(true)
	e.tripHalt()
}

// tripHalt wakes every serving goroutine parked on its waiter or blocked in
// waitAll. Callers record why (stop, preempted, fenced) first.
func (e *Engine) tripHalt() { e.haltOnce.Do(func() { close(e.halt) }) }

// halted reports whether the engine is stopped, preempted or fenced — the
// three states in which no serving goroutine may start another round.
func (e *Engine) halted() bool {
	select {
	case <-e.stop:
		return true
	default:
		return e.preempted.Load() || e.fenced.Load()
	}
}

// Fenced reports whether the engine has been deposed by a newer fencing
// epoch. Terminal: a fenced engine never serves again.
func (e *Engine) Fenced() bool { return e.fenced.Load() }

func (e *Engine) tripFenced() {
	e.fenced.Store(true)
	e.tripHalt()
}

// isFencedFailure reports whether err carries a StatusFenced completion.
func isFencedFailure(err error) bool {
	var wf *wrFailure
	return errors.As(err, &wf) && wf.st == rdma.StatusFenced
}

// SetFenceEpoch stamps the fencing epoch on every QP the engine serves
// through: the shared conn of every instance plus every slot's conn (a
// dedicated worker's differs). The wiring layer calls it at bind time; a
// promoted standby's epoch is stamped by ha.Standby before adoption (its
// QPs are not registered here yet at that point).
func (e *Engine) SetFenceEpoch(epoch uint16) {
	e.fenceEpoch.Store(uint32(epoch))
	for _, inst := range e.insts.Load().instances {
		e.stampConn(inst.shared)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.workers {
		for _, sl := range *w.slots.Load() {
			e.stampConn(sl.conn)
		}
	}
}

// stampConn stamps the engine's current fencing epoch on a conn's QPs; a
// zero epoch (fencing never configured) leaves them untouched.
func (e *Engine) stampConn(c conn) {
	epoch := uint16(e.fenceEpoch.Load())
	if epoch == 0 {
		return
	}
	if c.computeQP != nil {
		c.computeQP.SetFenceEpoch(epoch)
	}
	for _, qp := range c.pools {
		qp.SetFenceEpoch(epoch)
	}
}

// workerLoop is the datapath: it serves the worker's slots pass after pass,
// each pass under the worker's own round lock (the stop-the-world barrier),
// never a shared one.
//
// A pass visits every slot in order. A slot whose tenant has QoS installed,
// on a worker it shares with others, is scheduled by deficit round-robin:
// the pass tops its balance up by the tenant's quantum (bounded
// accumulation) and the round may serve at most the balance. A slot that is
// not yet due (see slot.idle) is skipped with no RDMA. Every slot, served or
// not, gets its lease heartbeat when the red block has gone unwritten for
// HeartbeatInterval — busy queues renew for free with their Phase IV
// writes — and its instance's pool heartbeat.
//
// The idle ladder is the worker's waiter, yield → park, the same for a
// dedicated worker and one that shares itself between slots. A slot that has
// served work is hot: due on every pass until it has missed idleYieldRounds
// times in a row. A pass that found work or missed on a hot slot yields: the
// request the next pass will find can only be written once its client has
// run, and a worker that re-probed at once would keep this P's local run
// queue busy with its own fabric round trip while that client waits on the
// global one. On a P with nothing else runnable the yield returns in about a
// hundred nanoseconds, so on an idle core the same rung is a spin. A slot
// past its budget — or never served — is cold: paced by ProbeInterval
// doubling up to the idle cap, skipped with no RDMA until due. A pass that
// touched no hot slot parks until the earliest cold one is due.
func (e *Engine) workerLoop(w *worker) {
	defer e.wg.Done()
	s := w.shard
	for !e.halted() {
		w.roundMu.Lock()
		if w.retired.Load() {
			// The queue set migrated away while the removal barrier held
			// this round lock; its rings now belong to another engine.
			w.roundMu.Unlock()
			return
		}
		// The slot list is loaded inside the round lock: RemoveInstance
		// swaps it under the barrier, so a pass that was blocked there must
		// not resurrect the pre-removal list and serve a queue set that now
		// belongs to another engine.
		slots := *w.slots.Load()
		idleCap := e.idleCap(s, len(slots))
		now := time.Now()
		busy := false // a slot served work, or missed while still hot
		wake := now.Add(idleCap)
		for _, sl := range slots {
			if sl.dead {
				continue
			}
			limit := e.cfg.MaxEntriesPerRound
			if qos := sl.inst.qos.Load(); qos != nil && len(slots) > 1 {
				sl.deficit = min(sl.deficit+qos.quantum, 8*qos.quantum)
				limit = min(limit, sl.deficit)
			}
			var err error
			if !now.Before(sl.nextProbe) {
				var n int
				n, err = e.serveQueue(s, sl.conn, sl.inst, sl.q, limit)
				sl.deficit = max(sl.deficit-n, 0)
				switch {
				case err != nil:
					// A WR failure on a pool replica QP declares that replica
					// dead and rotates the primary; the retry then re-executes
					// the abandoned round against the survivor (idempotently —
					// progress was never published for it). A fenced NAK
					// instead demotes this engine terminally (notePoolFailure
					// classifies both). A failure of the slot's own compute QP
					// retires the slot. Anything else (timeout) retries at
					// probe pace; the fabric-level Go-Back-N already absorbed
					// transient loss.
					e.notePoolFailure(sl.inst, sl.conn, err)
					if e.computePathDead(sl, err) {
						continue
					}
					sl.nextProbe = now.Add(e.cfg.ProbeInterval)
				case n > 0:
					busy = true
					sl.idle, sl.nextProbe = 0, time.Time{}
				case sl.idle < idleYieldRounds:
					busy = true
					sl.idle++
				default:
					sl.idle++
					sl.nextProbe = now.Add(e.probePacing(sl.idle-idleYieldRounds, idleCap))
				}
			}
			if wake.After(sl.nextProbe) {
				wake = sl.nextProbe
			}
			e.maybePoolHeartbeat(s, sl.conn, sl.inst, now)
			if err == nil && now.Sub(sl.q.lastRed) >= e.cfg.HeartbeatInterval {
				if rerr := e.writeRed(s, sl.conn, sl.q, sl.q.red); rerr == nil {
					s.stats.hbWrites.Add(1)
				} else {
					e.notePoolFailure(sl.inst, sl.conn, rerr)
					e.computePathDead(sl, rerr)
				}
			}
		}
		w.roundMu.Unlock()
		if busy {
			w.wait.Yield()
		} else if !w.wait.Block(max(wake.Sub(now), e.cfg.ProbeInterval)) {
			return
		}
	}
}

// idleCap is the bound of a cold slot's probe backoff on a worker serving
// nslots through s: IdleQueueProbeInterval when set, else the idle budget —
// with every cold slot probed once per nslots × probe time × 8, cold probing
// takes at most an eighth of the worker. Never below ProbeInterval.
func (e *Engine) idleCap(s *shard, nslots int) time.Duration {
	if e.cfg.IdleQueueProbeInterval > 0 {
		return max(e.cfg.IdleQueueProbeInterval, e.cfg.ProbeInterval)
	}
	return max(time.Duration(nslots)*s.probeTime*8, e.cfg.ProbeInterval)
}

// computePathDead retires sl if err says its compute QP is in the error
// state: a post refused by the QP (pool-QP posts never surface that bare,
// failedPost wraps them) or a failed completion carrying the QP's number —
// other than a fencing NAK, which deposes the whole engine instead
// (notePoolFailure). It reports whether the slot is dead.
func (e *Engine) computePathDead(sl *slot, err error) bool {
	var wf *wrFailure
	if errors.Is(err, rdma.ErrQPError) || errors.Is(err, rdma.ErrNotConnected) ||
		errors.As(err, &wf) && wf.qpn == sl.conn.computeQP.QPN() && wf.st != rdma.StatusFenced {
		sl.dead = true
		e.computePathsDead.Add(1)
	}
	return sl.dead
}

// probePacing returns how long a cold slot waits for its next probe after
// its nth paced miss: ProbeInterval, doubling with every further miss up to
// bound (idleCap, so never below ProbeInterval).
func (e *Engine) probePacing(n int, bound time.Duration) time.Duration {
	iv := e.cfg.ProbeInterval
	for ; n > 1 && iv < bound; n-- {
		iv *= 2
	}
	return min(iv, bound)
}

var errTimeout = errors.New("spot: RDMA completion timeout")

// wrFailure is a failed RDMA completion, carrying the QP it failed on so
// the replication layer can attribute the failure to a pool replica (the
// CQE's QPN survives into the error, the WR id and status into the text).
type wrFailure struct {
	qpn  uint32
	wrID uint64
	st   rdma.Status
}

func (f *wrFailure) Error() string {
	return fmt.Sprintf("spot: WR %d failed: %v (QPN %d)", f.wrID, f.st, f.qpn)
}

// failedPost wraps a PostSend error on a pool replica QP as a wrFailure so
// notePoolFailure can attribute it: posting on a QP that a previous round
// moved to the error state means that replica is dead.
func failedPost(qp *rdma.QP, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrPreempted) || errors.Is(err, core.ErrFenced) {
		return err
	}
	if errors.Is(err, rdma.ErrQPError) || errors.Is(err, rdma.ErrNotConnected) {
		return &wrFailure{qpn: qp.QPN(), st: rdma.StatusFlushed}
	}
	return err
}

// ErrPreempted reports that the engine's (simulated) spot VM was revoked
// mid-operation; no further RDMA work was or will be issued.
var ErrPreempted = errors.New("spot: engine preempted")

// pendingWR is one in-flight work request of the current wait. The QP is
// kept so an abandoned wait can fence the WR's staging memory (CancelSend)
// before the round's arena is reused.
type pendingWR struct {
	id uint64
	qp *rdma.QP
}

// post issues a work request on qp, appends it to the shard's pending set,
// and returns its WR id, which carries the shard index in its high bits for
// completion routing. If preemption injection is armed and exhausted, the
// post fails instead — the revocation point, which can therefore land
// between any two messages of the protocol.
func (e *Engine) post(s *shard, qp *rdma.QP, wr rdma.WorkRequest) (uint64, error) {
	if e.preempted.Load() {
		return 0, ErrPreempted
	}
	if e.fenced.Load() {
		return 0, core.ErrFenced
	}
	for {
		v := e.killAfter.Load()
		if v < 0 {
			break
		}
		if v == 0 {
			e.tripPreempt()
			return 0, ErrPreempted
		}
		// CAS: concurrent workers each burn exactly one post from the
		// injection budget.
		if e.killAfter.CompareAndSwap(v, v-1) {
			break
		}
	}
	wr.ID = uint64(s.id)<<wrShardShift | s.wrSeq.Add(1)&wrSeqMask
	if err := qp.PostSend(wr); err != nil {
		return 0, err
	}
	s.pending = append(s.pending, pendingWR{id: wr.ID, qp: qp})
	return wr.ID, nil
}

// abandonPending gives up on every WR still in s.pending. Each one is
// canceled at its QP so a response that arrives later — a retransmission
// landing after an engine-level timeout, a sibling WR still flying when
// another completion failed — can never DMA into the staging arena the next
// round is about to reuse. The stray CQEs the canceled WRs eventually
// produce are skipped by later waits (shard WR ids are never reused).
func (s *shard) abandonPending() {
	for _, p := range s.pending {
		p.qp.CancelSend(p.id)
	}
	s.pending = s.pending[:0]
}

// waitAll blocks until every WR in s.pending completes, returning an
// error if any completion failed or the timeout passed. On any error the
// round is abandoned: every still-pending WR is canceled (see
// abandonPending) and the pending set cleared.
func (e *Engine) waitAll(s *shard) error {
	if len(s.pending) == 0 {
		return nil
	}
	s.waits++
	var deadline time.Time // set when the wait first blocks
	for {
		n := s.cq.PollInto(s.cqeBuf[:])
		for _, c := range s.cqeBuf[:n] {
			if c.Status == rdma.StatusFenced {
				// A fencing NAK demotes the engine even when the CQE belongs
				// to a WR an earlier round abandoned (a retransmission that
				// survived a partition): stray CQEs skip the pending match
				// below, and the errored QP would otherwise surface only as
				// flush failures that never carry the fencing verdict.
				e.tripFenced()
			}
			for i, p := range s.pending {
				if p.id != c.WRID {
					continue
				}
				last := len(s.pending) - 1
				s.pending[i] = s.pending[last]
				s.pending = s.pending[:last]
				if c.Status != rdma.StatusOK {
					s.abandonPending()
					return &wrFailure{qpn: c.QPN, wrID: c.WRID, st: c.Status}
				}
				break
			}
		}
		if len(s.pending) == 0 {
			return nil
		}
		if n > 0 {
			continue // drained some; poll again before blocking
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(e.cfg.OpTimeout)
		}
		if !s.timerArmed {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				s.abandonPending()
				return errTimeout
			}
			s.timer.Reset(remaining)
			s.timerArmed = true
		}
		select {
		case <-s.cq.Notify():
		case <-s.timer.C:
			// A tick: this wait's own, or a stale one an earlier wait armed.
			// The deadline decides, on the way back here.
			s.timerArmed = false
		case <-e.halt:
			s.abandonPending()
			switch {
			case e.preempted.Load():
				return ErrPreempted
			case e.fenced.Load():
				return core.ErrFenced
			}
			return errTimeout // the engine is stopping
		}
	}
}

// postAndWait runs one WR synchronously on s. s.pending is empty between
// operations (every abandon path cancels and clears), so the wait covers
// exactly this WR.
func (e *Engine) postAndWait(s *shard, qp *rdma.QP, wr rdma.WorkRequest) error {
	if _, err := e.post(s, qp, wr); err != nil {
		return err
	}
	return e.waitAll(s)
}
