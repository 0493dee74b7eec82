// Package rdma implements a software RDMA stack speaking RoCEv2: memory
// regions, reliably-connected queue pairs, the one-sided READ and WRITE
// verbs (the only ones Cowbird posts), completion queues, MTU segmentation,
// PSN tracking, and Go-Back-N loss recovery.
//
// It is the functional substrate standing in for the ConnectX-5 RNICs of the
// paper's testbed: the verbs surface, packet formats, and failure modes
// match real RoCEv2 so that the Cowbird client library and both offload
// engines exercise the same protocol interactions the paper describes.
// Timing fidelity is NOT a goal of this package: the paper's figures are
// modelled in internal/perfsim, and this package's own costs, as a software
// datapath, are what the repository benchmark (benchmark/) and its layer
// probe benchmark/probes/rdma measure. What it does keep of the testbed's
// shape is that a memory pool is a plain RDMA responder, and its answer
// reaches the requester's completion queue, with no thread of either host
// waking to carry a frame (Fabric.Send).
package rdma

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/container"
	"cowbird/internal/telemetry"
	"cowbird/internal/wire"
)

// Device is anything attached to a Fabric that can receive Ethernet frames.
// The fabric calls Input from the device's inbox goroutine, in delivery
// order; a NIC of this package also takes frames for its QPs on a sending
// goroutine (Fabric.Send), so NIC.Input runs on many goroutines at
// once. A device defined outside this package is only ever called from its
// inbox goroutine. Either way a frame is dead once Input
// returns: the fabric may recycle it, so a device that needs a frame past
// Input must copy it — unless it avoids implementing nonRetaining, in which
// case its frames are never recycled.
type Device interface {
	MAC() wire.MAC
	Input(frame []byte)
}

// nonRetaining marks devices that never keep a reference to a frame after
// Input returns, making their frames safe to recycle into the frame pool.
// It is deliberately unexported: only this package's own devices (NIC, the
// UDP bridge proxy) can make that promise; frames delivered to foreign
// devices are always left to the garbage collector.
type nonRetaining interface {
	nonRetainingInput()
}

// Interposer sits on the fabric's forwarding path — the role of the
// programmable switch. Every frame passes through it exactly once, under the
// fabric's forwarding lock, making it a serialization point (§5.3: "the
// programmable switch's data plane pipeline serves as a serialization point
// for all requests"). It returns the frames to forward (possibly rewritten,
// possibly more or fewer than one).
//
// Process runs on the sender's goroutine, inside Fabric.Send and under the
// forwarding lock, so it must not call Send itself, nor wait on anything
// that a sender waits on. No sender holds a QP or region lock across Send.
// The fabric consumes the returned slice before the next Process call, so an
// interposer may reuse it. The returned frames join the fabric's egress FIFO
// and are delivered in order, those for a NIC's QP on the goroutine draining
// it (Fabric.Send): a host's answer re-enters Send, passes Process and joins
// the same FIFO, so a whole exchange chain runs on one goroutine with no
// inbox goroutine waking.
//
// No frame that passed through an interposer is recycled — it may have
// retained or aliased them — unless it also implements FrameReleaser.
type Interposer interface {
	Process(frame []byte) [][]byte
}

// FrameReleaser is the interposer's twin of nonRetaining: an Interposer that
// also implements it promises to keep no reference to any frame — the one
// Process was handed, or one it returned (each once, the input whole or not
// at all) — after Process returns. The fabric
// then treats interposed frames like direct ones: every returned frame is
// recycled into the frame pool once its destination device has consumed it,
// and an input frame that is not among the returned ones (consumed by the
// interposer) goes back to the pool at once. Such an interposer draws its
// output buffers from Fabric.FrameBuf, which closes the loop.
type FrameReleaser interface {
	Interposer
	ReleasesFrames()
}

// InterposerFunc adapts a function to the Interposer interface.
type InterposerFunc func(frame []byte) [][]byte

// Process implements Interposer.
func (f InterposerFunc) Process(frame []byte) [][]byte { return f(frame) }

// Stats counts fabric traffic, for bandwidth-overhead accounting, and the
// two ways a frame reaches its device.
type Stats struct {
	Sent    int64 // frames handed to Send, those an interposer consumes included
	Frames  int64 // frames delivered to a device
	Bytes   int64
	Dropped int64
	Inline  int64 // frames handled on a sending goroutine
	Wakeups int64 // inbox Signals that found the delivery goroutine parked
}

// fabricSnap is the immutable forwarding state published to the datapath.
// Senders load it with a single atomic read; the control plane (Attach and
// the Set* knobs) rebuilds and republishes it under Fabric.mu. This is the
// copy-on-write device table the sharded fast path reads lock-free.
type fabricSnap struct {
	devices    map[uint64]*inbox // keyed by macKey
	interposer Interposer
	releases   bool // interposer is a FrameReleaser
	lossFn     func(frame []byte) bool
	latency    time.Duration
	tap        *PcapTap
}

// Fabric is an in-process Ethernet segment: devices attach with a MAC, and
// frames sent to the fabric are forwarded — through the interposer, if any —
// to the device owning the destination MAC. Per-flow delivery is FIFO.
//
// Send runs on the caller's goroutine and returns once the frame is
// deposited in its destination inbox or handled, or queued in the egress
// FIFO behind an interposer, whose one drainer delivers in order; so one
// sender's frames never reorder. With neither an interposer nor a loss
// predicate installed it works from the published snapshot alone, so
// senders to different destinations share nothing but atomic counters.
// Either knob puts every frame under the one forwarding lock: the
// interposer's serialization point, and what calls a loss predicate one
// frame at a time.
//
// Lock order: no QP or region lock is held across Send; a sender holds at
// most fwdMu (released before an inline handler runs), then the destination
// inbox's lock. A handler takes its QP's lock, then a region's DMA lock or
// an inbox lock (QP.onTick), and releases both before its frames leave.
type Fabric struct {
	mu      sync.Mutex // control plane: guards the master copies below
	devices map[wire.MAC]*inbox
	interp  Interposer
	lossFn  func(frame []byte) bool
	latency time.Duration
	tap     *PcapTap
	closed  bool

	snap atomic.Pointer[fabricSnap]

	sent    atomic.Int64
	frames  atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64
	inline  atomic.Int64

	fwdMu sync.Mutex // the forwarding lock: held across forward and drain
	// egress holds the frames under fwdMu awaiting delivery, in forwarding
	// order: an interposer's outputs, and any frame forwarded while a drain
	// runs. draining marks the one goroutine delivering them (drain); it is
	// written under fwdMu and read by Send's lock-free path. cur is the flow
	// of the frame that goroutine is handing to a QP with fwdMu released,
	// or noFlow.
	egress   container.Ring[egressItem]
	draining atomic.Bool
	cur      flow

	pool *framePool
	wg   sync.WaitGroup // inbox goroutines
}

// NewFabric returns a running fabric with no devices attached.
func NewFabric() *Fabric {
	f := &Fabric{
		devices: make(map[wire.MAC]*inbox),
		pool:    newFramePool(),
		cur:     noFlow,
	}
	f.publishLocked()
	return f
}

// publishLocked rebuilds the datapath snapshot from the master state.
// Caller holds f.mu (or, in NewFabric, exclusive access).
func (f *Fabric) publishLocked() {
	devices := make(map[uint64]*inbox, len(f.devices))
	for mac, ib := range f.devices {
		devices[macKey(mac[:])] = ib
	}
	_, releases := f.interp.(FrameReleaser)
	f.snap.Store(&fabricSnap{
		devices:    devices,
		interposer: f.interp,
		releases:   releases,
		lossFn:     f.lossFn,
		latency:    f.latency,
		tap:        f.tap,
	})
}

// SetInterposer installs the switch pipeline on the forwarding path.
// Pass nil to remove it.
func (f *Fabric) SetInterposer(i Interposer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.interp = i
	f.publishLocked()
}

// SetLossFn installs a frame-drop predicate for fault-injection tests. It
// runs on the sender's goroutine under the forwarding lock, after the
// interposer, so calls never overlap. It must be leaf code: a verb sends on
// its caller's goroutine, so no lock the predicate takes may be held across
// a verb.
func (f *Fabric) SetLossFn(fn func(frame []byte) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lossFn = fn
	f.publishLocked()
}

// SetLatency introduces a fixed propagation latency per frame: a frame
// becomes deliverable d after it was forwarded, but consecutive frames'
// latencies overlap — an infinite-bandwidth, fixed-latency pipe, the model
// of the testbed network that matters for pipelining experiments. Per-
// destination FIFO ordering is preserved (deliver-at times are stamped
// under the destination inbox's lock, in arrival order). Engines that keep
// many requests in flight hide this latency; engines that wait out each
// round trip pay it in full, which is exactly what the engine-scaling
// benchmarks (internal/bench) measure. With a latency set, every frame
// queues (Send).
func (f *Fabric) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
	f.publishLocked()
}

// Stats returns a snapshot of the traffic counters.
func (f *Fabric) Stats() Stats {
	st := Stats{
		Sent:    f.sent.Load(),
		Frames:  f.frames.Load(),
		Bytes:   f.bytes.Load(),
		Dropped: f.dropped.Load(),
		Inline:  f.inline.Load(),
	}
	for _, ib := range f.snap.Load().devices {
		st.Wakeups += ib.wakeups.Load()
	}
	return st
}

// RegisterMetrics exports the fabric's traffic as gauges on reg, read at
// scrape time: frames sent, delivered and handled inline, inbox wake-ups,
// and the retry path of every NIC attached (NICStats) — how many frames an
// interposer consumes, how many still cost a goroutine hand-off, and how many
// a loss cost.
func (f *Fabric) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("cowbird_fabric_sent", f.sent.Load)
	reg.Gauge("cowbird_fabric_frames", f.frames.Load)
	reg.Gauge("cowbird_fabric_inline", f.inline.Load)
	reg.Gauge("cowbird_fabric_wakeups", func() int64 { return f.Stats().Wakeups })
	// Only the NICs' own counters are read: a NIC is on the snapshot
	// before NewNIC has returned, and its inbox field is set after.
	nics := func(pick func(*NIC) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, ib := range f.snap.Load().devices {
				if ib.nic != nil {
					total += pick(ib.nic)
				}
			}
			return total
		}
	}
	reg.Gauge("cowbird_rdma_rto_expiries", nics(func(n *NIC) int64 { return n.rtoExpiries.Load() }))
	reg.Gauge("cowbird_rdma_replays", nics(func(n *NIC) int64 { return n.replays.Load() }))
}

// Attach connects a device. It panics if the MAC is already in use.
func (f *Fabric) Attach(d Device) {
	if _, err := f.attach(d); err != nil {
		panic(err)
	}
}

// attach connects d and returns its inbox, or an error if its MAC is in use.
func (f *Fabric) attach(d Device) (*inbox, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mac := d.MAC()
	if _, dup := f.devices[mac]; dup {
		return nil, errors.New("rdma: duplicate MAC on fabric: " + mac.String())
	}
	ib := newInbox(d, f.pool)
	f.devices[mac] = ib
	f.publishLocked()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		ib.run()
	}()
	return ib, nil
}

// Queued reports whether frames for QP qpn of the device that owns mac were
// forwarded and are not yet read: waiting in the egress FIFO, being handed
// to the QP by the goroutine draining it, queued in the device's inbox (a
// frame due later under SetLatency is still on the wire), or taken by the
// inbox goroutine and not yet delivered. The P4 switch's queue timeouts
// consult it, as QP.onTick consults its own NIC's inbox: a software NIC the
// scheduler has not run, or a drain descheduled mid-chain, is slow, not
// silent. The egress FIFO is guarded by the forwarding lock, so Queued is
// for an Interposer: call it from Process.
func (f *Fabric) Queued(mac wire.MAC, qpn uint32) bool {
	fl := flow{macKey(mac[:]), qpn}
	if f.cur == fl {
		return true
	}
	for i := 0; i < f.egress.Len(); i++ {
		if flowOf(f.egress.At(i).frame) == fl {
			return true
		}
	}
	ib := f.snap.Load().devices[fl.mac]
	return ib != nil && ib.queued(qpn)
}

// FrameBuf returns an empty buffer with capacity for an n-byte frame, drawn
// from the fabric's frame pool. It is how a FrameReleaser interposer builds
// the frames it returns: they go back to the pool once delivered.
func (f *Fabric) FrameBuf(n int) []byte { return f.pool.get(n) }

// Send forwards a frame on the caller's goroutine. Ownership of the frame
// transfers to the fabric: the caller must not read or modify it after Send
// returns (the fabric may recycle it into the frame pool once delivered).
// Safe for concurrent use.
//
// A frame for a QP of this package's NIC — a request, a READ response, an
// ACK or a NAK — is handled on a sending goroutine when the fabric has zero
// latency and the destination inbox holds nothing: a memory pool or a
// compute node is a plain RDMA responder, and a requester's answer lands in
// its completion queue, with no goroutine waking per frame. The handler runs
// once the fabric's locks are released; it sends what it emits (a response,
// an ACK) on the same goroutine, so a round trip completes inside the
// requester's PostSend. Senders hold no QP or region lock across Send
// (QP.unlock), which is what makes any two QPs safe to deliver inline into
// each other. Every frame under SetLatency and every frame for another
// device takes the destination inbox.
//
// With neither an interposer nor a loss predicate, Send delivers from the
// published snapshot alone and returns once the frame is handled or queued.
// Either knob puts the frame under the forwarding lock. An interposer's
// outputs join the egress FIFO, which one sender at a time drains (drain):
// a sender that finds another draining leaves its frames to it and returns,
// so the frames of a P4 exchange chain — each host's answer re-enters Send,
// passes Process and joins the FIFO — are all handled on the goroutine that
// started the chain. Per-flow order holds across both paths: a frame goes
// inline only when no earlier frame of its flow is queued anywhere.
func (f *Fabric) Send(frame []byte) {
	f.sent.Add(1)
	var q *QP
	if s := f.snap.Load(); s.interposer == nil && s.lossFn == nil && !f.draining.Load() {
		q = f.deliver(s, frame, true)
	} else {
		f.fwdMu.Lock()
		q = f.forward(frame)
		f.fwdMu.Unlock()
	}
	if q != nil {
		q.nic.input(q, frame)
		f.pool.put(frame)
	}
}

// Close stops the fabric and waits for delivery goroutines to drain.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	for _, ib := range f.devices {
		ib.close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// forward runs one frame through the interposer, if any, under fwdMu;
// loading the snapshot here makes a Set* call take effect on the very next
// frame. Without an interposer and with no drain running it delivers the
// frame at once, and returns the QP to hand it to once fwdMu is released
// (see deliver). Otherwise the frame, or what Process returned for it, joins
// the egress FIFO, and the caller drains it unless a drain is running.
// Interposed frames are recycled only when a FrameReleaser vouches for them:
// any other interposer may retain them.
func (f *Fabric) forward(frame []byte) *QP {
	s := f.snap.Load()
	switch {
	case s.interposer == nil && !f.draining.Load():
		return f.deliver(s, frame, true)
	case s.interposer == nil:
		f.egress.Push(egressItem{frame: frame, recycle: true})
	default:
		consumed := s.releases
		for _, fr := range s.interposer.Process(frame) {
			if consumed && len(fr) > 0 && len(frame) > 0 && &fr[0] == &frame[0] {
				consumed = false
			}
			f.egress.Push(egressItem{frame: fr, recycle: s.releases})
		}
		if consumed {
			// put keeps buffers below the small class out of the pool, which
			// is what keeps an interposer's own static frames (the P4
			// generator tick) from ever being handed out as somebody's
			// output buffer.
			f.pool.put(frame)
		}
	}
	if !f.draining.Load() {
		f.drain()
	}
	return nil
}

// egressItem is one frame in the egress FIFO; recycle marks it
// pool-returnable, as deliver's argument does.
type egressItem struct {
	frame   []byte
	recycle bool
}

// flow names a frame's destination for Queued: the device's MAC key and the
// RoCEv2 destination QP.
type flow struct {
	mac uint64
	qpn uint32
}

// noFlow matches no query: a MAC key has 48 bits, and a QPN 24.
var noFlow = flow{^uint64(0), nonQPFlow}

// flowOf returns fr's flow, or noFlow for a frame too short to address.
func flowOf(fr []byte) flow {
	if len(fr) < wire.EthernetLen {
		return noFlow
	}
	return flow{macKey(fr), flowKey(fr)}
}

// drain delivers the egress FIFO in order until it is empty; caller holds
// fwdMu. Each frame is delivered with the snapshot current when it leaves
// the FIFO, so the choice between a QP on this goroutine and the inbox is
// made at dequeue time, when every earlier frame of its flow is already
// handled or queued. For a QP, fwdMu is released while the handler runs:
// the frames it emits re-enter Send and join the FIFO behind the others,
// and senders on other goroutines keep forwarding. One goroutine drains at
// a time — the pattern of QP.unlock's sending — so a frame never overtakes
// one ahead of it, and inline depth stays one handler.
func (f *Fabric) drain() {
	f.draining.Store(true)
	for f.egress.Len() > 0 {
		it := f.egress.Pop()
		q := f.deliver(f.snap.Load(), it.frame, it.recycle)
		if q == nil {
			continue
		}
		f.cur = flowOf(it.frame)
		f.fwdMu.Unlock()
		q.nic.input(q, it.frame)
		if it.recycle {
			f.pool.put(it.frame)
		}
		f.fwdMu.Lock()
		f.cur = noFlow
	}
	f.draining.Store(false)
}

// deliver applies the loss predicate and the tap, then deposits fr into the
// destination inbox — or, for a frame to a NIC's QP with the fabric's
// latency off and the inbox idle (inbox.inlineQP), returns that QP, and
// the caller hands fr to it. recycle marks the frame pool-returnable:
// at once if it is dropped, else once a non-retaining destination device has
// consumed it.
func (f *Fabric) deliver(s *fabricSnap, fr []byte, recycle bool) *QP {
	if len(fr) < wire.EthernetLen {
		return nil
	}
	if s.lossFn != nil && s.lossFn(fr) {
		f.dropped.Add(1)
		if recycle {
			f.pool.put(fr)
		}
		return nil
	}
	if s.tap != nil {
		s.tap.Capture(fr)
	}
	ib := s.devices[macKey(fr)]
	f.frames.Add(1)
	f.bytes.Add(int64(len(fr)))
	if ib == nil {
		return nil
	}
	if s.latency == 0 {
		if q := ib.inlineQP(fr); q != nil {
			f.inline.Add(1)
			return q
		}
	}
	ib.put(fr, s.latency, recycle && ib.recyclable)
	return nil
}

// macKey packs the MAC in b's first six bytes into a word: the snapshot's
// device map hashes a uint64 instead of a 6-byte array (memhash_varlen was
// 8 % of a P4 read's CPU).
func macKey(b []byte) uint64 {
	return uint64(binary.BigEndian.Uint16(b[0:2]))<<32 | uint64(binary.BigEndian.Uint32(b[2:6]))
}

// inbox delivers frames to one device on a dedicated goroutine. It carries
// every frame Fabric.Send does not hand to a QP on a sending goroutine. Each
// frame carries an optional deliver-at time (SetLatency); times are stamped
// under the inbox lock in arrival order. Queues are rings, not
// appended-and-resliced slices: a reslice pins every delivered frame until
// the backing array turns over, which under bursty traffic retained
// megabytes of dead frames.
//
// Frames are queued per source flow — the RoCEv2 BTH destination QP — and
// drained round-robin across flows, one frame per flow per turn. A single
// global FIFO head-of-line-blocked every tenant behind the hottest QP's
// burst inside each pop batch; with per-flow queues a 10k-frame aggressor
// burst delays a peer's lone frame by at most the frames ahead of it in its
// own flow plus one round of the active flows. FIFO order is preserved
// within a flow (where RC ordering actually matters); cross-flow order was
// never guaranteed by real hardware either. Non-RoCEv2 frames share one
// overflow flow.
//
// busy is set by the first frame queued after the consumer parked and
// cleared only when the consumer parks again, having found nothing queued
// and delivered everything it popped. A frame is handed to a QP inline only
// while it is clear, so a flow that switches from the queue to the inline
// path (a latency knob changed, a burst drained) never lets a frame overtake
// one still queued: a flow's frames come from its one peer QP, which sends
// them one goroutine at a time (QP.unlock), or, behind an interposer, from
// the one goroutine draining the egress FIFO (Fabric.drain). The producer
// only reads the flag on the hot path, one load per queued frame; a count of
// the queued frames would cost two atomic read-modify-writes.
type inbox struct {
	mu         sync.Mutex
	cond       *sync.Cond
	flows      map[uint32]*inboxFlow
	active     container.Ring[*inboxFlow] // flows with queued frames, RR order
	waiting    bool                       // consumer is parked in cond.Wait; Signal only then
	closed     atomic.Bool                // written under mu
	busy       atomic.Bool                // frames queued or in delivery; written under mu
	wakeups    atomic.Int64               // Signals that found the consumer parked
	dev        Device
	nic        *NIC // dev, when it is this package's NIC: the one inline target
	pool       *framePool
	recyclable bool
}

// inboxFlow is one destination QP's FIFO within an inbox. queued marks
// membership in the active ring so a flow is never enqueued twice;
// delivering counts its frames in the consumer's current batch. All three
// are guarded by the inbox mutex.
type inboxFlow struct {
	frames     container.Ring[inboxItem]
	queued     bool
	delivering int
}

type inboxItem struct {
	frame   []byte
	due     time.Time
	recycle bool
}

// nonQPFlow keys the shared flow for frames that aren't RoCEv2 (ARP-less
// test traffic, truncated frames). Real DestQPs are 24-bit, so the key
// cannot collide.
const nonQPFlow = ^uint32(0)

// flowKey classifies a frame by its RoCEv2 BTH destination QP, or nonQPFlow
// when the frame isn't RoCEv2/UDP/IPv4 or is too short to tell.
func flowKey(frame []byte) uint32 {
	if len(frame) < wire.EthernetLen+wire.IPv4Len+wire.UDPLen+wire.BTHLen {
		return nonQPFlow
	}
	if frame[12] != 0x08 || frame[13] != 0x00 { // ethertype IPv4
		return nonQPFlow
	}
	if frame[wire.EthernetLen+9] != 17 { // IP proto UDP
		return nonQPFlow
	}
	udp := wire.EthernetLen + wire.IPv4Len
	if binary.BigEndian.Uint16(frame[udp+2:udp+4]) != wire.RoCEv2Port {
		return nonQPFlow
	}
	return binary.BigEndian.Uint32(frame[bthOffset+4:bthOffset+8]) & 0x00ffffff
}

// bthOffset is where the BTH starts in a RoCEv2 frame; its first byte is the
// opcode.
const bthOffset = wire.EthernetLen + wire.IPv4Len + wire.UDPLen

// inboxBatch is how many queued frames the delivery goroutine drains per
// lock acquisition. Batching amortizes the mutex and condvar traffic under
// load without adding latency: the consumer only batches what is already
// queued, and delivers it in order, so a smaller limit would add lock round
// trips without shortening any frame's wait.
const inboxBatch = 32

func newInbox(d Device, pool *framePool) *inbox {
	_, recyclable := d.(nonRetaining)
	nic, _ := d.(*NIC)
	ib := &inbox{
		dev:        d,
		nic:        nic,
		pool:       pool,
		recyclable: recyclable,
		flows:      make(map[uint32]*inboxFlow),
	}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// inlineQP returns the QP a frame may be handed to on the sender's
// goroutine, or nil when the frame must queue: the device is not a NIC, the
// inbox is closed or not empty, or the frame is for no QP of the NIC.
func (ib *inbox) inlineQP(fr []byte) *QP {
	if ib.nic == nil || ib.busy.Load() || ib.closed.Load() {
		return nil
	}
	return ib.nic.qpFor(fr)
}

func (ib *inbox) put(frame []byte, latency time.Duration, recycle bool) {
	key := flowKey(frame) // parse outside the lock; pure read of the frame
	ib.mu.Lock()
	if !ib.closed.Load() {
		if !ib.busy.Load() {
			ib.busy.Store(true)
		}
		var due time.Time
		if latency > 0 {
			due = time.Now().Add(latency)
		}
		fl := ib.flows[key]
		if fl == nil {
			fl = &inboxFlow{}
			ib.flows[key] = fl
		}
		fl.frames.Push(inboxItem{frame: frame, due: due, recycle: recycle})
		if !fl.queued {
			fl.queued = true
			ib.active.Push(fl)
		}
		if ib.waiting {
			ib.cond.Signal()
			ib.wakeups.Add(1)
		}
	}
	ib.mu.Unlock()
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed.Store(true)
	ib.cond.Signal()
	ib.mu.Unlock()
}

// queued reports whether frames for flow key wait unread: queued, or in the
// consumer's current batch (Fabric.Queued, QP.onTick).
func (ib *inbox) queued(key uint32) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	fl := ib.flows[key]
	switch {
	case fl == nil:
		return false
	case fl.delivering > 0:
		return true
	case fl.frames.Len() == 0:
		return false
	}
	due := fl.frames.Front().due
	return due.IsZero() || !due.After(time.Now())
}

// pending reports queued frames; callers hold ib.mu. The active ring is
// non-empty exactly when some flow has frames.
func (ib *inbox) pending() bool { return ib.active.Len() > 0 }

func (ib *inbox) run() {
	var buf [inboxBatch]inboxItem
	var from [inboxBatch]*inboxFlow // buf[i]'s flow
	n := 0
	for {
		ib.mu.Lock()
		for i := 0; i < n; i++ {
			from[i].delivering--
			from[i] = nil
		}
		for !ib.pending() && !ib.closed.Load() {
			ib.busy.Store(false) // nothing queued, the last batch delivered
			ib.waiting = true
			ib.cond.Wait()
			ib.waiting = false
		}
		if !ib.pending() {
			ib.mu.Unlock()
			return
		}
		// One frame per active flow per turn: a burst on one QP contributes
		// one frame per round while every waiting peer's head frame departs
		// in the same round.
		n = 0
		for n < inboxBatch && ib.active.Len() > 0 {
			fl := ib.active.Pop()
			buf[n], from[n] = fl.frames.Pop(), fl
			fl.delivering++
			n++
			if fl.frames.Len() > 0 {
				ib.active.Push(fl)
			} else {
				fl.queued = false
			}
		}
		ib.mu.Unlock()
		for i := 0; i < n; i++ {
			it := buf[i]
			buf[i] = inboxItem{} // don't pin delivered frames
			if !it.due.IsZero() {
				if d := time.Until(it.due); d > 0 {
					time.Sleep(d)
				}
			}
			ib.dev.Input(it.frame)
			if it.recycle {
				ib.pool.put(it.frame)
			}
		}
	}
}
