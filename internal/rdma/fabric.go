// Package rdma implements a software RDMA stack speaking RoCEv2: memory
// regions, reliably-connected queue pairs, one-sided READ/WRITE and
// two-sided SEND/RECV verbs, completion queues, MTU segmentation, PSN
// tracking, and Go-Back-N loss recovery.
//
// It is the functional substrate standing in for the ConnectX-5 RNICs of the
// paper's testbed: the verbs surface, packet formats, and failure modes
// match real RoCEv2 so that the Cowbird client library and both offload
// engines exercise the same protocol interactions the paper describes.
// Timing fidelity is NOT a goal of this package — the performance results
// come from internal/perfsim.
package rdma

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/container"
	"cowbird/internal/wire"
)

// Device is anything attached to a Fabric that can receive Ethernet frames.
// Input is always called from a single goroutine per device, in delivery
// order. Frames may be recycled by the fabric after Input returns, so a
// device that needs a frame past Input must copy it — unless it avoids
// implementing nonRetaining, in which case its frames are never recycled.
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
// Process runs on the sender's goroutine, inside Fabric.Send, so it
// must not call anything that takes a QP's lock (senders hold theirs across
// Send) and must not call Send itself. The fabric consumes the returned slice
// before the next Process call, so an interposer may reuse it.
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

// Stats counts fabric traffic, for bandwidth-overhead accounting.
type Stats struct {
	Frames  int64
	Bytes   int64
	Dropped int64
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
// to the device owning the destination MAC. Per-destination delivery is FIFO.
//
// Send runs on the caller's goroutine and returns only once the frame is
// deposited in its destination inbox, so one sender's frames never reorder.
// With neither an interposer nor a loss predicate installed it appends to
// the inbox the published snapshot names, so senders to different
// destinations share nothing but atomic counters. Either knob puts every
// frame under the one forwarding lock: the interposer's serialization point,
// and what calls a loss predicate one frame at a time.
//
// Lock order: a sender's qp.mu → fwdMu → the destination's inbox.mu. Nothing
// called under fwdMu (interposer, loss predicate) may take the first.
type Fabric struct {
	mu      sync.Mutex // control plane: guards the master copies below
	devices map[wire.MAC]*inbox
	interp  Interposer
	lossFn  func(frame []byte) bool
	latency time.Duration
	tap     *PcapTap
	closed  bool

	snap atomic.Pointer[fabricSnap]

	frames  atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64

	fwdMu sync.Mutex // the forwarding lock: held across forward

	pool *framePool
	wg   sync.WaitGroup // inbox goroutines
}

// NewFabric returns a running fabric with no devices attached.
func NewFabric() *Fabric {
	f := &Fabric{
		devices: make(map[wire.MAC]*inbox),
		pool:    newFramePool(),
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
// interposer, so calls never overlap. It must be leaf code: the sender holds
// its QP's lock and maybe a region's DMA lock, so no lock the predicate takes
// may be held across a verb or a DMA-locked access.
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
// benchmarks (internal/bench) measure.
func (f *Fabric) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
	f.publishLocked()
}

// Stats returns a snapshot of the traffic counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		Frames:  f.frames.Load(),
		Bytes:   f.bytes.Load(),
		Dropped: f.dropped.Load(),
	}
}

// Attach connects a device. It panics if the MAC is already in use.
func (f *Fabric) Attach(d Device) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mac := d.MAC()
	if _, dup := f.devices[mac]; dup {
		panic("rdma: duplicate MAC on fabric: " + mac.String())
	}
	ib := newInbox(d, f.pool)
	f.devices[mac] = ib
	f.publishLocked()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		ib.run()
	}()
}

// FrameBuf returns an empty buffer with capacity for an n-byte frame, drawn
// from the fabric's frame pool. It is how a FrameReleaser interposer builds
// the frames it returns: they go back to the pool once delivered.
func (f *Fabric) FrameBuf(n int) []byte { return f.pool.get(n) }

// Send forwards a frame on the caller's goroutine. Ownership of the frame
// transfers to the fabric: the caller must not read or modify it after Send
// returns (the fabric may recycle it into the frame pool once delivered).
// Safe for concurrent use.
func (f *Fabric) Send(frame []byte) {
	if s := f.snap.Load(); s.interposer == nil && s.lossFn == nil {
		f.deliver(s, frame, true)
		return
	}
	f.fwdMu.Lock()
	f.forward(frame)
	f.fwdMu.Unlock()
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

// forward runs one frame through the interposer, if any, then delivery,
// under fwdMu; loading the snapshot here makes a Set* call take effect on the
// very next frame. Interposed frames are recycled only when a FrameReleaser
// vouches for them: any other interposer may retain them.
func (f *Fabric) forward(frame []byte) {
	s := f.snap.Load()
	if s.interposer == nil {
		f.deliver(s, frame, true)
		return
	}
	consumed := s.releases
	for _, fr := range s.interposer.Process(frame) {
		if consumed && len(fr) > 0 && len(frame) > 0 && &fr[0] == &frame[0] {
			consumed = false
		}
		f.deliver(s, fr, s.releases)
	}
	if consumed {
		// put keeps buffers below the small class out of the pool, which is
		// what keeps an interposer's own static frames (the P4 generator
		// tick) from ever being handed out as somebody's output buffer.
		f.pool.put(frame)
	}
}

// deliver applies the loss predicate and the tap and deposits fr into the
// destination inbox. recycle marks the frame pool-returnable: at once if it
// is dropped, else once a non-retaining destination device has consumed it.
func (f *Fabric) deliver(s *fabricSnap, fr []byte, recycle bool) {
	if len(fr) < wire.EthernetLen {
		return
	}
	if s.lossFn != nil && s.lossFn(fr) {
		f.dropped.Add(1)
		if recycle {
			f.pool.put(fr)
		}
		return
	}
	if s.tap != nil {
		s.tap.Capture(fr)
	}
	ib := s.devices[macKey(fr)]
	f.frames.Add(1)
	f.bytes.Add(int64(len(fr)))
	if ib != nil {
		ib.put(fr, s.latency, recycle && ib.recyclable)
	}
}

// macKey packs the MAC in b's first six bytes into a word: the snapshot's
// device map hashes a uint64 instead of a 6-byte array (memhash_varlen was
// 8 % of a P4 read's CPU).
func macKey(b []byte) uint64 {
	return uint64(binary.BigEndian.Uint16(b[0:2]))<<32 | uint64(binary.BigEndian.Uint32(b[2:6]))
}

// inbox delivers frames to one device on a dedicated goroutine, so device
// handlers can send synchronously without deadlock. Each frame carries an
// optional deliver-at time (SetLatency); times are stamped under the inbox
// lock in arrival order. Queues are rings, not appended-and-resliced slices:
// a reslice pins every delivered frame until the backing array turns over,
// which under bursty traffic retained megabytes of dead frames.
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
type inbox struct {
	mu         sync.Mutex
	cond       *sync.Cond
	flows      map[uint32]*inboxFlow
	active     container.Ring[*inboxFlow] // flows with queued frames, RR order
	waiting    bool                       // consumer is parked in cond.Wait; Signal only then
	closed     bool
	dev        Device
	pool       *framePool
	recyclable bool
}

// inboxFlow is one destination QP's FIFO within an inbox. queued marks
// membership in the active ring so a flow is never enqueued twice; both
// fields are guarded by the inbox mutex.
type inboxFlow struct {
	frames container.Ring[inboxItem]
	queued bool
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
	bth := udp + wire.UDPLen
	return binary.BigEndian.Uint32(frame[bth+4:bth+8]) & 0x00ffffff
}

// inboxBatch is how many queued frames the delivery goroutine drains per
// lock acquisition. Batching amortizes the mutex and condvar traffic under
// load without adding latency: the consumer only batches what is already
// queued, and delivers it in order, so a smaller limit would add lock round
// trips without shortening any frame's wait.
const inboxBatch = 32

func newInbox(d Device, pool *framePool) *inbox {
	_, recyclable := d.(nonRetaining)
	ib := &inbox{
		dev:        d,
		pool:       pool,
		recyclable: recyclable,
		flows:      make(map[uint32]*inboxFlow),
	}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(frame []byte, latency time.Duration, recycle bool) {
	key := flowKey(frame) // parse outside the lock; pure read of the frame
	ib.mu.Lock()
	if !ib.closed {
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
		}
	}
	ib.mu.Unlock()
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.cond.Signal()
	ib.mu.Unlock()
}

// pending reports queued frames; callers hold ib.mu. The active ring is
// non-empty exactly when some flow has frames.
func (ib *inbox) pending() bool { return ib.active.Len() > 0 }

func (ib *inbox) run() {
	var buf [inboxBatch]inboxItem
	for {
		ib.mu.Lock()
		for !ib.pending() && !ib.closed {
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
		n := 0
		for n < inboxBatch && ib.active.Len() > 0 {
			fl := ib.active.Pop()
			buf[n] = fl.frames.Pop()
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
