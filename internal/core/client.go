package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cowbird/internal/cache"
	"cowbird/internal/container"
	"cowbird/internal/pace"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/telemetry"
)

// Client errors.
var (
	ErrUnknownRegion = errors.New("cowbird: unknown region id")
	ErrBadRange      = errors.New("cowbird: access outside region bounds")
	ErrBadThread     = errors.New("cowbird: thread index out of range")

	// ErrEngineDead reports that the compute node's lease monitor
	// (internal/ha) has declared the offload engine dead: its heartbeat
	// counter stalled past the lease timeout. Blocking waits return it
	// instead of spinning forever; the caller can trigger standby
	// promotion and retry — already-issued requests survive the failover.
	ErrEngineDead = errors.New("cowbird: offload engine dead (lease expired)")

	// ErrPoolDegraded is the advisory returned by WaitErr when it comes back
	// empty-handed while a replicated memory pool is running with at least
	// one replica declared dead. Requests still complete off the surviving
	// replicas — the error never pre-empts a deliverable completion — but
	// redundancy is gone, and the caller should trigger pool re-provisioning
	// before a second loss becomes data loss.
	ErrPoolDegraded = errors.New("cowbird: memory pool degraded (replica lost)")

	// ErrSeqExhausted reports that a thread has issued 2^48-1 requests of one
	// type, the most the ReqID encoding can number. Issuing one more would
	// wrap the sequence field and break Thread.completed's `<=` comparison for
	// every request that follows, so AsyncRead/AsyncWrite fail closed here
	// instead of truncating.
	ErrSeqExhausted = errors.New("cowbird: per-thread request sequence space exhausted (2^48-1 per op type)")

	// ErrFenced reports that the serving offload engine has been fenced: a
	// newer fencing epoch was installed at the memory pool (and at this
	// client's queue sets) by a standby promotion, and the engine's writes
	// are being NAKed instead of landing. It is a terminal demotion signal
	// for that engine — requests it was serving will be replayed by the
	// promoted successor, and blocking waits surface this instead of
	// spinning against a deposed writer.
	ErrFenced = errors.New("cowbird: writer fenced (stale epoch superseded by promotion)")
)

// Client is the compute-node side of Cowbird. It owns one queue set per
// hardware thread, all registered with the compute NIC so the offload
// engine can reach them, and a registry of remote memory regions.
//
// Client itself is safe for concurrent use in the way the paper prescribes:
// each hardware thread uses its own Thread handle; distinct threads never
// share one.
type Client struct {
	nic     *rdma.NIC
	threads []*Thread
	regions map[uint16]RegionInfo
	tel     *telemetry.Telemetry // nil disables all instrumentation
	cache   *cache.Cache         // nil disables the hot-data tier

	liveness   atomic.Value // func() bool; nil means "always alive"
	poolHealth atomic.Value // func() bool reporting degraded; nil means "healthy"
	fenceCheck atomic.Value // func() bool reporting the engine fenced; nil means "never"
	fenceEpoch atomic.Uint32
}

// ClientConfig sizes a client.
type ClientConfig struct {
	// Threads is the number of per-hardware-thread queue sets.
	Threads int
	// Layout is the geometry of each queue set.
	Layout rings.Layout
	// BaseVA is where the first queue set's buffer is addressed; subsequent
	// sets follow contiguously.
	BaseVA uint64
	// Telemetry, when non-nil, records exact issue/harvest counters and
	// samples request lifecycles 1-in-N (see telemetry.Config.SampleEvery).
	// Nil compiles the instrumentation down to one pointer check per call.
	Telemetry *telemetry.Telemetry
	// Cache, when Enabled, interposes the client-side hot-data tier
	// (internal/cache) between the Table 2 API and the issue rings:
	// single-line reads are served locally on a hit, misses fill the cache
	// at harvest, writes go through to the fabric and update or invalidate
	// cached lines, and the stride prefetcher issues bounded speculative
	// reads. Disabled (the zero value) keeps the issue path byte-identical
	// to the uncached build. See DESIGN.md §11 for the consistency contract.
	Cache cache.Config
}

// DefaultClientConfig returns a workable single-thread configuration.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{Threads: 1, Layout: rings.DefaultLayout(), BaseVA: 0x10_0000}
}

// NewClient allocates queue sets and registers them (DMA-locked) on nic.
func NewClient(nic *rdma.NIC, cfg ClientConfig) (*Client, error) {
	if cfg.Threads <= 0 || cfg.Threads > reqIDQueueMax {
		return nil, fmt.Errorf("cowbird: bad thread count %d", cfg.Threads)
	}
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	c := &Client{nic: nic, regions: make(map[uint16]RegionInfo), tel: cfg.Telemetry}
	if cfg.Cache.Enabled {
		cc, err := cache.New(cfg.Cache)
		if err != nil {
			return nil, err
		}
		ccfg := cc.Config()
		if ccfg.LineSize > cfg.Layout.RespDataBytes {
			return nil, fmt.Errorf("cowbird: cache line size %d exceeds the %d-byte response ring", ccfg.LineSize, cfg.Layout.RespDataBytes)
		}
		c.cache = cc
	}
	va := cfg.BaseVA
	for i := 0; i < cfg.Threads; i++ {
		qs, err := rings.NewQueueSet(va, cfg.Layout)
		if err != nil {
			return nil, err
		}
		mr := nic.RegisterMRLocked(va, qs.Bytes(), qs.Mutex())
		// A wait yields 64 times (completions land within microseconds), then
		// blocks 20 µs at a time so a co-located engine gets the CPU.
		t := &Thread{c: c, idx: i, qs: qs, mr: mr, wait: pace.New(nil, 64, 20*time.Microsecond)}
		if c.cache != nil {
			t.initPrefetch(c.cache.Config())
		}
		c.threads = append(c.threads, t)
		va += uint64(cfg.Layout.Total())
	}
	return c, nil
}

// Cache returns the hot-data tier, or nil when disabled. Exporters register
// its gauges (cache.RegisterMetrics); tests and benches read its stats.
func (c *Client) Cache() *cache.Cache { return c.cache }

// SetLiveness installs the engine-liveness check consulted by blocking
// waits; internal/ha's Monitor installs its Alive method here. The default
// (nil) means "always alive", preserving the original spin-forever
// behaviour for deployments without a failure detector.
func (c *Client) SetLiveness(fn func() bool) { c.liveness.Store(fn) }

func (c *Client) engineAlive() bool {
	fn, _ := c.liveness.Load().(func() bool)
	return fn == nil || fn()
}

// SetPoolHealth installs the pool-degradation check consulted by WaitErr;
// internal/system wires the Spot engine's PoolDegraded method here for
// replicated deployments. The default (nil) means "never degraded" — the
// single-pool behaviour.
func (c *Client) SetPoolHealth(fn func() bool) { c.poolHealth.Store(fn) }

func (c *Client) poolDegraded() bool {
	fn, _ := c.poolHealth.Load().(func() bool)
	return fn != nil && fn()
}

// SetFenceSignal installs the engine-fenced check consulted by WaitErr;
// internal/system wires the Spot engine's Fenced method here. A fenced
// engine has been deposed by a newer epoch holder and will never serve
// again, so blocking waits return ErrFenced instead of spinning. The
// default (nil) means "never fenced".
func (c *Client) SetFenceSignal(fn func() bool) { c.fenceCheck.Store(fn) }

func (c *Client) engineFenced() bool {
	fn, _ := c.fenceCheck.Load().(func() bool)
	return fn != nil && fn()
}

// Fence raises the fencing floor on every queue-set MR: inbound RDMA WRITEs
// (the engine's red-block bookkeeping and response batches) must carry a
// fencing epoch >= epoch or they are NAKed. This is the compute-node half of
// split-brain protection — without it a deposed engine could still corrupt
// queue-set bookkeeping even after the pool fenced it out. Epochs are
// monotone; fencing below the current floor returns ErrFenced.
func (c *Client) Fence(epoch uint16) error {
	for {
		cur := c.fenceEpoch.Load()
		if uint32(epoch) < cur {
			return fmt.Errorf("client fence epoch %d below current floor %d: %w", epoch, cur, ErrFenced)
		}
		if c.fenceEpoch.CompareAndSwap(cur, uint32(epoch)) {
			break
		}
	}
	for _, t := range c.threads {
		t.mr.SetFenceFloor(epoch)
	}
	return nil
}

// FenceEpoch returns the client's current queue-set fencing floor.
func (c *Client) FenceEpoch() uint16 { return uint16(c.fenceEpoch.Load()) }

// RegisterRegion records a remote memory region; the id is the region_id
// used in requests.
func (c *Client) RegisterRegion(r RegionInfo) {
	c.regions[r.ID] = r
}

// Thread returns the handle for hardware thread i.
func (c *Client) Thread(i int) (*Thread, error) {
	if i < 0 || i >= len(c.threads) {
		return nil, ErrBadThread
	}
	return c.threads[i], nil
}

// Threads reports the number of queue sets.
func (c *Client) Threads() int { return len(c.threads) }

// Describe builds the Phase I Setup payload for an offload engine.
func (c *Client) Describe(instanceID int) *Instance {
	in := &Instance{ID: instanceID}
	for _, t := range c.threads {
		in.Queues = append(in.Queues, QueueInfo{
			Index:  t.idx,
			BaseVA: t.qs.Base(),
			Layout: t.qs.Layout(),
			RKey:   t.mr.RKey,
		})
	}
	for _, r := range c.regions {
		in.Regions = append(in.Regions, r)
	}
	return in
}

// pendingRead remembers where a read's response will land and where the
// application wants it delivered, plus what the cache tier should do with
// the bytes once they arrive.
type pendingRead struct {
	seq    uint64
	respVA uint64
	dest   []byte

	// Cache-tier bookkeeping (meaningful only when the client has a cache).
	region    uint16
	off       uint64 // region-relative offset of the read
	fillGen   uint64 // cache.FillGen at issue time; stale fills are dropped
	cacheable bool   // insert into the cache at harvest
	prefetch  bool   // speculative read: fill the cache, deliver nothing
	pfSlot    int16  // prefetch buffer slot to recycle at harvest
}

// Thread is the per-hardware-thread issuing context. A Thread's methods
// must be called from a single goroutine at a time (matching the paper's
// per-hardware-thread buffers); the underlying rings synchronize with
// engine DMA independently.
type Thread struct {
	c   *Client
	idx int
	qs  *rings.QueueSet
	mr  *rdma.MR

	readSeq  uint64 // last issued read sequence number
	writeSeq uint64 // last issued write sequence number
	hitSeq   uint64 // last local cache-hit sequence number (disjoint space)

	pendingReads  container.Ring[pendingRead]
	pendingWrites container.Ring[uint64]

	// Hot-data tier state (nil/empty when the client has no cache): the
	// per-thread stride detector, the reusable line buffers speculative
	// reads land in, and which buffers are in flight. Owned by the thread's
	// goroutine like the rest of the struct.
	pf         *cache.Prefetcher
	pfBufs     [][]byte
	pfBusy     []bool
	pfRegion   []uint16
	pfOff      []uint64
	pfInFlight int

	// harvested completions not yet delivered through a poll group
	doneReads  uint64 // all read seqs <= this are harvested
	doneWrites uint64
	wait       *pace.Waiter // paces WaitErr, Select and WaitAll between empty harvests

	// Lifecycle sampling state: at most one in-flight sampled request per
	// thread, so the instrumented path stays allocation-free and time.Now is
	// paid only 1-in-N issues. Owned by the thread's goroutine like the rest
	// of the struct.
	issueCount   uint64 // drives the 1-in-N sampling decision
	sampleActive bool
	sampleOp     rings.OpType
	sampleSeq    uint64
	sampleStart  time.Time
}

// Index returns the thread's queue index.
func (t *Thread) Index() int { return t.idx }

// QueueSet exposes the underlying rings (used by tests and the in-process
// engines' setup paths).
func (t *Thread) QueueSet() *rings.QueueSet { return t.qs }

func (t *Thread) region(id uint16) (RegionInfo, error) {
	r, ok := t.c.regions[id]
	if !ok {
		return RegionInfo{}, fmt.Errorf("%w: %d", ErrUnknownRegion, id)
	}
	return r, nil
}

// AsyncRead initiates an asynchronous read of len(dest) bytes from offset
// src of the given region into dest (Table 2: async_read(region_id, src,
// dest, length)). dest must remain valid until the request completes. It
// returns a request ID for poll groups.
//
// On ring-full errors the application should call PollWait to drain
// completions and retry (§4.3).
func (t *Thread) AsyncRead(regionID uint16, src uint64, dest []byte) (ReqID, error) {
	r, err := t.region(regionID)
	if err != nil {
		return 0, err
	}
	if t.readSeq >= MaxSeq {
		return 0, ErrSeqExhausted
	}
	length := uint32(len(dest))
	if src+uint64(length) > r.Size {
		return 0, fmt.Errorf("%w: read [%d, %d) of region %d (size %d)", ErrBadRange, src, src+uint64(length), regionID, r.Size)
	}
	if t.c.cache != nil {
		return t.asyncReadCached(regionID, src, dest, r)
	}
	t0 := t.sampleIssueStart()
	respVA, err := t.qs.PushRead(r.Base+src, length, regionID)
	if err != nil {
		return 0, err
	}
	t.readSeq++
	t.pendingReads.Push(pendingRead{seq: t.readSeq, respVA: respVA, dest: dest})
	if tel := t.c.tel; tel != nil {
		tel.ReadsIssued.Inc(t.idx)
		t.sampleIssued(rings.OpRead, t.readSeq, t0)
	}
	return MakeReqID(rings.OpRead, t.idx, t.readSeq), nil
}

// AsyncWrite initiates an asynchronous write of data to offset dst of the
// given region (Table 2: async_write(region_id, src, dest, length)). data
// is copied into the request data ring before AsyncWrite returns, so the
// caller may reuse it immediately.
func (t *Thread) AsyncWrite(regionID uint16, data []byte, dst uint64) (ReqID, error) {
	r, err := t.region(regionID)
	if err != nil {
		return 0, err
	}
	if t.writeSeq >= MaxSeq {
		return 0, ErrSeqExhausted
	}
	if dst+uint64(len(data)) > r.Size {
		return 0, fmt.Errorf("%w: write [%d, %d) of region %d (size %d)", ErrBadRange, dst, dst+uint64(len(data)), regionID, r.Size)
	}
	t0 := t.sampleIssueStart()
	cc := t.c.cache
	if cc != nil {
		// Close fill admission BEFORE the write becomes visible anywhere
		// (ring push or gen bump). A reader that saw FillAdmissible pass has
		// necessarily not yet recorded its fill generation when this write's
		// gen bump lands, so the generation guard catches it at harvest; see
		// the ordering protocol in DESIGN.md §11. Admission reopens when the
		// write acks (WriteRetired in harvest).
		cc.WriteIssued()
	}
	if err := t.qs.PushWrite(data, r.Base+dst, regionID); err != nil {
		if cc != nil {
			cc.WriteRetired(1) // the write never left: reopen admission
		}
		return 0, err
	}
	t.writeSeq++
	t.pendingWrites.Push(t.writeSeq)
	if cc != nil {
		// Write-through: the write is on its way to the fabric (exactly-once
		// and replication semantics untouched); the cached image follows it
		// so this thread — and every thread sharing the cache — reads its
		// own writes from here on.
		cc.WriteThrough(t.idx, regionID, dst, data)
	}
	if tel := t.c.tel; tel != nil {
		tel.WritesIssued.Inc(t.idx)
		t.sampleIssued(rings.OpWrite, t.writeSeq, t0)
	}
	return MakeReqID(rings.OpWrite, t.idx, t.writeSeq), nil
}

// sampleIssueStart decides, before the ring push, whether this issue is the
// 1-in-N lifecycle sample, and timestamps it if so. A zero return means
// unsampled; only sampled issues pay a time.Now.
func (t *Thread) sampleIssueStart() time.Time {
	tel := t.c.tel
	if tel == nil {
		return time.Time{}
	}
	n := t.issueCount
	t.issueCount++
	if t.sampleActive || !tel.Sampled(n) {
		return time.Time{}
	}
	return time.Now()
}

// sampleIssued arms the thread's sample slot after a successful push and
// records the issue-path latency (API entry to ring append visible).
func (t *Thread) sampleIssued(op rings.OpType, seq uint64, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	t.c.tel.StageIssue.Observe(time.Since(t0))
	t.sampleActive = true
	t.sampleOp = op
	t.sampleSeq = seq
	t.sampleStart = t0
}

// harvest folds engine progress into the thread: completed reads are copied
// from the response ring to their destinations (in order — per-type
// linearizability makes the FIFO correct) and their ring space freed;
// completed writes are retired.
func (t *Thread) harvest() {
	writeProg, readProg := t.qs.Progress()
	var nr, nw int64
	for t.pendingReads.Len() > 0 && t.pendingReads.Front().seq <= readProg {
		pr := t.pendingReads.Pop()
		t.qs.ReadResponse(pr.respVA, pr.dest)
		t.qs.FreeResponse(uint32(len(pr.dest)))
		t.doneReads = pr.seq
		if pr.prefetch {
			// Speculative read: install the line and recycle the buffer; the
			// application never sees it. Insert drops the fill itself if a
			// write raced it (fillGen).
			t.c.cache.Insert(t.idx, pr.region, pr.off, pr.dest, pr.fillGen, true)
			t.pfBusy[pr.pfSlot] = false
			t.pfInFlight--
			continue
		}
		if pr.cacheable {
			t.c.cache.Insert(t.idx, pr.region, pr.off, pr.dest, pr.fillGen, false)
		}
		nr++
	}
	for t.pendingWrites.Len() > 0 && *t.pendingWrites.Front() <= writeProg {
		t.doneWrites = t.pendingWrites.Pop()
		nw++
	}
	if nw > 0 && t.c.cache != nil {
		t.c.cache.WriteRetired(nw)
	}
	if tel := t.c.tel; tel != nil && nr+nw > 0 {
		if nr > 0 {
			tel.ReadsHarvested.Add(t.idx, nr)
		}
		if nw > 0 {
			tel.WritesHarvested.Add(t.idx, nw)
		}
		// The sampled request can only complete in a harvest that retired
		// something, so this check is free on the empty (hot) iterations.
		if t.sampleActive {
			if t.sampleOp == rings.OpRead && t.sampleSeq <= t.doneReads {
				tel.EndToEndReads.Observe(time.Since(t.sampleStart))
				t.sampleActive = false
			} else if t.sampleOp == rings.OpWrite && t.sampleSeq <= t.doneWrites {
				tel.EndToEndWrites.Observe(time.Since(t.sampleStart))
				t.sampleActive = false
			}
		}
	}
}

// completed reports whether the request has been harvested. Local cache
// hits were complete before their AsyncRead returned.
func (t *Thread) completed(id ReqID) bool {
	if id.LocalHit() {
		return true
	}
	if id.Op() == rings.OpWrite {
		return id.Seq() <= t.doneWrites
	}
	return id.Seq() <= t.doneReads
}

// PollGroup is an epoll-like notification group for request IDs (§4.1,
// §4.4: poll_create allocates a list of (region_id, req_id) tuples and an
// integer tracking the maximum registered req_id per type).
type PollGroup struct {
	t        *Thread
	ids      []ReqID
	done     []ReqID // scratch reused by WaitErr across calls
	maxRead  uint64
	maxWrite uint64
}

// PollCreate initializes a notification group for this thread's requests.
func (t *Thread) PollCreate() *PollGroup {
	return &PollGroup{t: t}
}

// Add registers a request with the group (poll_add).
func (g *PollGroup) Add(id ReqID) error {
	if id.Queue() != g.t.idx {
		return fmt.Errorf("cowbird: request %v belongs to queue %d, group to queue %d", id, id.Queue(), g.t.idx)
	}
	g.ids = append(g.ids, id)
	if id.LocalHit() {
		// Hit sequences are a separate space; folding them into the ring
		// read watermark would corrupt it.
		return nil
	}
	if id.Op() == rings.OpWrite {
		if id.Seq() > g.maxWrite {
			g.maxWrite = id.Seq()
		}
	} else if id.Seq() > g.maxRead {
		g.maxRead = id.Seq()
	}
	return nil
}

// Remove deregisters a request (poll_remove). Completions for removed
// requests are not reported.
func (g *PollGroup) Remove(id ReqID) {
	for i, v := range g.ids {
		if v == id {
			g.ids = append(g.ids[:i], g.ids[i+1:]...)
			return
		}
	}
}

// Len reports the number of registered, undelivered requests.
func (g *PollGroup) Len() int { return len(g.ids) }

// Wait blocks until it can report at least one completion (up to maxRet) or
// the timeout elapses (Table 2: poll_wait(poll_id, responses, max_ret,
// timeout)). Completed request IDs are removed from the group and returned.
// A zero timeout polls exactly once.
func (g *PollGroup) Wait(maxRet int, timeout time.Duration) []ReqID {
	done, _ := g.WaitErr(maxRet, timeout)
	return done
}

// WaitErr is Wait with failure surfacing: if the installed liveness check
// (Client.SetLiveness) reports the engine dead while completions are still
// outstanding, it returns ErrEngineDead instead of spinning until the
// timeout. Completions that landed before the engine died are still
// delivered first — the error is only returned when nothing is reportable.
// An empty-handed return with requests outstanding additionally carries the
// ErrPoolDegraded advisory when a pool replica has been lost (SetPoolHealth).
//
// The returned slice is scratch owned by the group and is overwritten by
// the next Wait/WaitErr call; consume it before waiting again.
func (g *PollGroup) WaitErr(maxRet int, timeout time.Duration) ([]ReqID, error) {
	if maxRet <= 0 {
		return nil, nil
	}
	g.t.wait.Start(timeout)
	for {
		g.t.harvest()
		// Scan before compacting: the common iteration of a busy wait finds
		// nothing, and rewriting the id list on every spin was most of its
		// cost. Only a hit pays for the compaction.
		first := -1
		for i, id := range g.ids {
			if g.t.completed(id) {
				first = i
				break
			}
		}
		if first >= 0 {
			done := g.done[:0]
			rest := g.ids[:first]
			for _, id := range g.ids[first:] {
				if len(done) < maxRet && g.t.completed(id) {
					done = append(done, id)
				} else {
					rest = append(rest, id)
				}
			}
			g.ids = rest
			g.done = done
			return done, nil
		}
		if len(g.ids) == 0 {
			return nil, nil
		}
		if g.t.c.engineFenced() {
			// More specific than ErrEngineDead (a fenced engine also stops
			// heartbeating): the engine was deposed, not lost.
			return nil, ErrFenced
		}
		if !g.t.c.engineAlive() {
			return nil, ErrEngineDead
		}
		if timeout <= 0 || !g.t.wait.Idle() {
			return nil, g.emptyErr()
		}
	}
}

// emptyErr is the advisory attached to an empty-handed WaitErr return with
// requests still outstanding: ErrPoolDegraded when the installed pool-health
// check reports a lost replica, nil otherwise. It never displaces a
// completion (checked only on the empty paths) and ranks below ErrEngineDead
// (checked earlier in the loop) — a dead engine is the more actionable fact.
func (g *PollGroup) emptyErr() error {
	if g.t.c.poolDegraded() {
		return ErrPoolDegraded
	}
	return nil
}

// Drain harvests and reports completion counts without a poll group, for
// callers that track their own request IDs.
func (t *Thread) Drain() (doneWrites, doneReads uint64) {
	t.harvest()
	return t.doneWrites, t.doneReads
}

// --- §4.1 convenience extensions -------------------------------------------
//
// "Simple extensions can be made to the API to allow convenience methods
// like traditional select/poll semantics or an implicit notification group
// tied to each read and write."

// Completed reports whether a request has finished, poll(2)-style: a
// single non-blocking check against the progress counters.
func (t *Thread) Completed(id ReqID) bool {
	t.harvest()
	return t.completed(id)
}

// Select blocks until at least one of ids completes or the timeout passes,
// returning the completed subset (select(2) semantics). A zero timeout
// polls exactly once.
func (t *Thread) Select(ids []ReqID, timeout time.Duration) []ReqID {
	t.wait.Start(timeout)
	for {
		t.harvest()
		var done []ReqID
		for _, id := range ids {
			if t.completed(id) {
				done = append(done, id)
			}
		}
		if len(done) > 0 || timeout <= 0 || !t.wait.Idle() {
			return done
		}
	}
}

// WaitAll blocks until every id completes or the timeout passes, reporting
// whether all finished.
func (t *Thread) WaitAll(ids []ReqID, timeout time.Duration) bool {
	t.wait.Start(timeout)
	for {
		t.harvest()
		all := true
		for _, id := range ids {
			if !t.completed(id) {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if timeout <= 0 || !t.wait.Idle() {
			return false
		}
	}
}

// ReadSync is the synchronous convenience wrapper: AsyncRead plus a wait on
// an implicit notification group.
func (t *Thread) ReadSync(regionID uint16, src uint64, dest []byte, timeout time.Duration) error {
	id, err := t.AsyncRead(regionID, src, dest)
	if err != nil {
		return err
	}
	if !t.WaitAll([]ReqID{id}, timeout) {
		return fmt.Errorf("cowbird: read %v timed out after %v", id, timeout)
	}
	return nil
}

// WriteSync is the synchronous convenience wrapper for AsyncWrite.
func (t *Thread) WriteSync(regionID uint16, data []byte, dst uint64, timeout time.Duration) error {
	id, err := t.AsyncWrite(regionID, data, dst)
	if err != nil {
		return err
	}
	if !t.WaitAll([]ReqID{id}, timeout) {
		return fmt.Errorf("cowbird: write %v timed out after %v", id, timeout)
	}
	return nil
}
