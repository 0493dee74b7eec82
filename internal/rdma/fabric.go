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
// The fabric calls Input on whichever goroutine delivers the frame — a
// sender's, or the delay line's (Fabric.Send) — so Input runs on many
// goroutines at once, and must be safe for that. Per-flow order holds: the
// frames of one flow (one destination QP, or all of a device's non-RoCE
// frames from one sender) reach Input one at a time, in forwarding order.
// A frame is dead once Input returns: the fabric may recycle it, so a device
// that needs a frame past Input must copy it — unless it avoids implementing
// nonRetaining, in which case its frames are never recycled.
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
// and are delivered in order on the goroutine draining it (Fabric.Send): a
// host's answer re-enters Send, passes Process and joins the same FIFO, so a
// whole exchange chain runs on one goroutine.
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

// Stats counts fabric traffic, for bandwidth-overhead accounting. Frames
// less Inline is how many frames took the delay line.
type Stats struct {
	Sent    int64 // frames handed to Send, those an interposer consumes included
	Frames  int64 // frames delivered to a device
	Bytes   int64
	Dropped int64
	Inline  int64 // frames handed to their device on a sending goroutine
}

// fabricSnap is the immutable forwarding state published to the datapath.
// Senders load it with a single atomic read; the control plane (Attach and
// the Set* knobs) rebuilds and republishes it under Fabric.mu. This is the
// copy-on-write device table the sharded fast path reads lock-free.
type fabricSnap struct {
	devices    map[uint64]port // keyed by macKey
	interposer Interposer
	releases   bool // interposer is a FrameReleaser
	lossFn     func(frame []byte) bool
	latency    time.Duration
	tap        *PcapTap
	closed     bool // Close ran: every frame is dropped
}

// port is an attached device; recyclable marks it nonRetaining.
type port struct {
	dev        Device
	recyclable bool
}

// Fabric is an in-process Ethernet segment: devices attach with a MAC, and
// frames sent to the fabric are forwarded — through the interposer, if any —
// to the device owning the destination MAC. Per-flow delivery is FIFO.
//
// Send runs on the caller's goroutine and returns once the frame is handled,
// queued on the delay line, or queued in the egress FIFO behind an
// interposer, whose one drainer delivers in order; so one sender's frames
// never reorder. With neither an interposer nor a loss predicate installed
// it works from the published snapshot alone, so senders to different
// destinations share nothing but atomic counters. Either knob puts every
// frame under the one forwarding lock: the interposer's serialization point,
// and what calls a loss predicate one frame at a time. A fabric runs one
// goroutine of its own, the delay line's (delayLine), however many devices
// are attached.
//
// Lock order: no QP or region lock is held across Send; a sender holds at
// most fwdMu (released before a device's Input runs), then the delay line's
// lock. A handler takes its QP's lock, then a region's DMA lock or the delay
// line's (QP.onTick), and releases both before its frames leave.
type Fabric struct {
	mu      sync.Mutex // control plane: guards the master copies below
	devices map[wire.MAC]port
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

	line delayLine
	pool *framePool
}

// NewFabric returns a running fabric with no devices attached, and starts
// its delay line's goroutine; Close stops it.
func NewFabric() *Fabric {
	f := &Fabric{
		devices: make(map[wire.MAC]port),
		pool:    newFramePool(),
		cur:     noFlow,
	}
	f.line.start(f.pool)
	f.publishLocked()
	return f
}

// publishLocked rebuilds the datapath snapshot from the master state.
// Caller holds f.mu (or, in NewFabric, exclusive access).
func (f *Fabric) publishLocked() {
	devices := make(map[uint64]port, len(f.devices))
	for mac, p := range f.devices {
		devices[macKey(mac[:])] = p
	}
	_, releases := f.interp.(FrameReleaser)
	f.snap.Store(&fabricSnap{
		devices:    devices,
		interposer: f.interp,
		releases:   releases,
		lossFn:     f.lossFn,
		latency:    f.latency,
		tap:        f.tap,
		closed:     f.closed,
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
// of the testbed network that matters for pipelining experiments. With a
// latency set, every frame waits on the fabric's delay line, which delivers
// in forwarding order; a frame forwarded after the latency is lowered waits
// behind the earlier ones and never overtakes them. Engines that keep many
// requests in flight hide this latency; engines that wait out each round
// trip pay it in full. The engine-scaling and client-cache sweeps
// (internal/bench) run under a latency, and the chaos injector's latency
// events set one for their span.
func (f *Fabric) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
	f.publishLocked()
}

// Stats returns a snapshot of the traffic counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		Sent:    f.sent.Load(),
		Frames:  f.frames.Load(),
		Bytes:   f.bytes.Load(),
		Dropped: f.dropped.Load(),
		Inline:  f.inline.Load(),
	}
}

// RegisterMetrics exports the fabric's traffic as gauges on reg, read at
// scrape time: frames sent, delivered and handed over inline, and the retry
// path of every NIC attached (NICStats) — how many frames an interposer
// consumes, how many took the delay line, and how many a loss cost.
func (f *Fabric) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("cowbird_fabric_sent", f.sent.Load)
	reg.Gauge("cowbird_fabric_frames", f.frames.Load)
	reg.Gauge("cowbird_fabric_inline", f.inline.Load)
	nics := func(pick func(*NIC) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, p := range f.snap.Load().devices {
				if n, ok := p.dev.(*NIC); ok {
					total += pick(n)
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
	if err := f.attach(d); err != nil {
		panic(err)
	}
}

// attach connects d, or returns an error if its MAC is in use.
func (f *Fabric) attach(d Device) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	mac := d.MAC()
	if _, dup := f.devices[mac]; dup {
		return errors.New("rdma: duplicate MAC on fabric: " + mac.String())
	}
	_, recyclable := d.(nonRetaining)
	f.devices[mac] = port{dev: d, recyclable: recyclable}
	f.publishLocked()
	return nil
}

// Queued reports whether frames for QP qpn of the device that owns mac were
// forwarded and are not yet read: waiting in the egress FIFO, being handed
// to the QP by the goroutine draining it, or due on the delay line or in its
// delivery (a frame not yet due under SetLatency is still on the wire). The
// P4 switch's queue timeouts consult it, as QP.onTick consults the delay
// line: a drain descheduled mid-chain, or a line behind, is slow, not
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
	return f.line.queued(fl, fl)
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
// One rule decides how a frame reaches its device. With zero latency and
// nothing on the delay line, the frame is handed to its device on the
// sending goroutine, once the fabric's locks are released: a memory pool or
// a compute node is a plain RDMA responder, and a requester's answer lands
// in its completion queue, with no goroutine waking per frame. A handler
// sends what it emits (a response, an ACK) on the same goroutine, so a round
// trip completes inside the requester's PostSend. Senders hold no QP or
// region lock across Send (QP.unlock), which is what makes any two QPs safe
// to deliver into each other. Every other frame — under SetLatency, or
// forwarded while the line holds frames or is delivering one — joins the
// delay line, whose one goroutine delivers in forwarding order; a frame a
// handler emits on that goroutine queues behind the rest.
//
// With neither an interposer nor a loss predicate, Send delivers from the
// published snapshot alone and returns once the frame is handled or queued.
// Either knob puts the frame under the forwarding lock. An interposer's
// outputs join the egress FIFO, which one sender at a time drains (drain):
// a sender that finds another draining leaves its frames to it and returns,
// so the frames of a P4 exchange chain — each host's answer re-enters Send,
// passes Process and joins the FIFO — are all handled on the goroutine that
// started the chain. Per-flow order holds across every path: a frame goes
// inline only when no earlier frame is queued anywhere.
func (f *Fabric) Send(frame []byte) {
	f.sent.Add(1)
	var dev Device
	var recycle bool
	if s := f.snap.Load(); s.interposer == nil && s.lossFn == nil && !f.draining.Load() {
		dev, recycle = f.deliver(s, frame, true)
	} else {
		f.fwdMu.Lock()
		dev, recycle = f.forward(frame)
		f.fwdMu.Unlock()
	}
	if dev != nil {
		dev.Input(frame)
		if recycle {
			f.pool.put(frame)
		}
	}
}

// Close stops the fabric: later frames are dropped, the frames on the delay
// line too, and Close returns once the line's goroutine, having finished the
// frame in delivery, has exited.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.publishLocked()
	f.mu.Unlock()
	f.line.close()
}

// forward runs one frame through the interposer, if any, under fwdMu;
// loading the snapshot here makes a Set* call take effect on the very next
// frame. Without an interposer and with no drain running it delivers the
// frame at once, and returns the device to hand it to once fwdMu is released
// (see deliver). Otherwise the frame, or what Process returned for it, joins
// the egress FIFO, and the caller drains it unless a drain is running.
// Interposed frames are recycled only when a FrameReleaser vouches for them:
// any other interposer may retain them.
func (f *Fabric) forward(frame []byte) (Device, bool) {
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
	return nil, false
}

// egressItem is one frame in the egress FIFO; recycle marks it
// pool-returnable, as deliver's argument does.
type egressItem struct {
	frame   []byte
	recycle bool
}

// flow names a frame's destination: the device's MAC key and the RoCEv2
// destination QP.
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
// the FIFO, so the choice between this goroutine and the delay line is made
// at dequeue time, when every earlier frame is already handled or queued.
// fwdMu is released while the device's Input runs: the frames a handler
// emits re-enter Send and join the FIFO behind the others, and senders on
// other goroutines keep forwarding. One goroutine drains at a time — the
// pattern of QP.unlock's sending — so a frame never overtakes one ahead of
// it, and inline depth stays one handler.
func (f *Fabric) drain() {
	f.draining.Store(true)
	for f.egress.Len() > 0 {
		it := f.egress.Pop()
		dev, recycle := f.deliver(f.snap.Load(), it.frame, it.recycle)
		if dev == nil {
			continue
		}
		f.cur = flowOf(it.frame)
		f.fwdMu.Unlock()
		dev.Input(it.frame)
		if recycle {
			f.pool.put(it.frame)
		}
		f.fwdMu.Lock()
		f.cur = noFlow
	}
	f.draining.Store(false)
}

// deliver applies the loss predicate and the tap, then either puts fr on the
// delay line or — with the fabric's latency off and the line idle — returns
// its device, which the caller hands fr to, and whether the caller recycles
// fr afterwards. recycle marks the frame pool-returnable: at once if it is
// dropped, else once a non-retaining destination device has consumed it.
func (f *Fabric) deliver(s *fabricSnap, fr []byte, recycle bool) (Device, bool) {
	if len(fr) < wire.EthernetLen {
		return nil, false
	}
	if s.lossFn != nil && s.lossFn(fr) {
		f.dropped.Add(1)
		if recycle {
			f.pool.put(fr)
		}
		return nil, false
	}
	if s.tap != nil {
		s.tap.Capture(fr)
	}
	p, ok := s.devices[macKey(fr)]
	f.frames.Add(1)
	f.bytes.Add(int64(len(fr)))
	if !ok || s.closed {
		return nil, false
	}
	recycle = recycle && p.recyclable
	if s.latency == 0 && !f.line.busy.Load() {
		f.inline.Add(1)
		return p.dev, recycle
	}
	f.line.push(fr, p.dev, recycle, s.latency)
	return nil, false
}

// macKey packs the MAC in b's first six bytes into a word: the snapshot's
// device map hashes a uint64 instead of a 6-byte array (memhash_varlen was
// 8 % of a P4 read's CPU).
func macKey(b []byte) uint64 {
	return uint64(binary.BigEndian.Uint16(b[0:2]))<<32 | uint64(binary.BigEndian.Uint32(b[2:6]))
}

// nonQPFlow keys the frames that aren't RoCEv2 (ARP-less test traffic,
// truncated frames). Real DestQPs are 24-bit, so the key cannot collide.
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

// delayLine carries every frame Fabric.Send does not hand over on its
// sender's goroutine: one FIFO per fabric, served by one goroutine, which
// sleeps until the head frame is due and then hands it to its device. Each
// frame carries a deliver-at time, stamped at push; the latency is
// fabric-wide, so stamps never decrease along the line, and a frame pushed
// after the latency was lowered takes its predecessor's stamp rather than
// overtake it. The zero time means due at once. A frame a handler emits on
// the line's goroutine finds the line busy and queues behind the rest, so
// the line keeps forwarding order whatever the handlers send. The queue is
// a ring, not an appended-and-resliced slice: a reslice pins every delivered
// frame until the backing array turns over.
//
// busy is set by the first frame pushed after the goroutine parked and
// cleared only when it parks again, with nothing queued and nothing in
// delivery. A frame is handed over inline only while it is clear, so a flow
// that switches from the line to the inline path (a latency knob changed,
// a backlog delivered) never lets a frame overtake one still queued: a
// flow's frames come from its one peer QP, which sends them one goroutine
// at a time (QP.unlock), or, behind an interposer, from the one goroutine
// draining the egress FIFO (Fabric.drain). The sender only reads the flag,
// one load per frame.
type delayLine struct {
	mu     sync.Mutex
	cond   sync.Cond // the goroutine parks on it when the line is empty
	q      container.Ring[lineItem]
	cur    flow // the flow of the frame in delivery, or noFlow
	closed bool
	busy   atomic.Bool // frames queued or one in delivery; written under mu
	done   chan struct{}
	pool   *framePool
}

// lineItem is one frame on the delay line, with its device, its flow
// (delayLine.queued) and its deliver-at time.
type lineItem struct {
	frame   []byte
	dev     Device
	fl      flow
	due     time.Time
	recycle bool
}

// start readies the line and starts its goroutine.
func (l *delayLine) start(pool *framePool) {
	l.cond.L = &l.mu
	l.cur = noFlow
	l.pool = pool
	l.done = make(chan struct{})
	go l.run()
}

// push queues fr for dev, due latency from now but not before the frame
// ahead of it. A closed line drops it.
func (l *delayLine) push(fr []byte, dev Device, recycle bool, latency time.Duration) {
	fl := flowOf(fr) // parse outside the lock; a pure read of the frame
	var due time.Time
	if latency > 0 {
		due = time.Now().Add(latency)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if n := l.q.Len(); n > 0 {
		if tail := l.q.At(n - 1).due; tail.After(due) {
			due = tail
		}
	}
	if !l.busy.Load() {
		l.busy.Store(true)
	}
	l.q.Push(lineItem{frame: fr, dev: dev, fl: fl, due: due, recycle: recycle})
	if l.q.Len() == 1 {
		l.cond.Signal()
	}
}

// queued reports whether a frame of flow a or b is in delivery, or waits due
// on the line (QP.onTick, Fabric.Queued). Stamps never decrease, so the
// scan stops at the first frame not yet due.
func (l *delayLine) queued(a, b flow) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == a || l.cur == b {
		return true
	}
	var now time.Time
	for i := 0; i < l.q.Len(); i++ {
		it := l.q.At(i)
		if !it.due.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if it.due.After(now) {
				return false
			}
		}
		if it.fl == a || it.fl == b {
			return true
		}
	}
	return false
}

// close drops the queued frames and waits for the goroutine to exit.
func (l *delayLine) close() {
	l.mu.Lock()
	l.closed = true
	l.q = container.Ring[lineItem]{}
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
}

// run is the line's goroutine: it delivers the head frame once it is due,
// with the lock released, until the line is closed.
func (l *delayLine) run() {
	defer close(l.done)
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.closed {
		if l.q.Len() == 0 {
			l.busy.Store(false) // nothing queued, the last frame delivered
			l.cond.Wait()
			continue
		}
		if due := l.q.Front().due; !due.IsZero() {
			if d := time.Until(due); d > 0 {
				l.mu.Unlock()
				time.Sleep(d)
				l.mu.Lock()
				continue
			}
		}
		it := l.q.Pop()
		l.cur = it.fl
		l.mu.Unlock()
		it.dev.Input(it.frame)
		if it.recycle {
			l.pool.put(it.frame)
		}
		l.mu.Lock()
		l.cur = noFlow
	}
}
