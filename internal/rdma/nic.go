package rdma

import (
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/wire"
)

// Config controls NIC protocol parameters.
type Config struct {
	// MTU is the maximum RDMA payload per packet. The paper's testbed
	// segments at 1024 bytes ("when the requested data size is larger than
	// 1024 bytes, RDMA will automatically segment the response").
	MTU int
	// RetransmitTimeout is only the floor of each QP's retransmission
	// timeout, which is measured from the QP's own round trips and doubles
	// on each expiry (RTOEstimator).
	RetransmitTimeout time.Duration
	// MaxRetries bounds consecutive timeouts before a WR fails.
	MaxRetries int
}

// DefaultConfig returns the paper-faithful defaults.
func DefaultConfig() Config {
	return Config{MTU: 1024, RetransmitTimeout: DefaultRTOFloor, MaxRetries: DefaultMaxRetries}
}

// mrTable is the immutable registration snapshot the datapath reads
// lock-free. Registration rebuilds and republishes it under NIC.mu.
type mrTable struct {
	mrs    []*MR
	byRKey map[uint32]*MR
}

// NIC is a software RNIC: it owns memory registrations and queue pairs, and
// converts verbs into RoCEv2 frames on its fabric.
//
// Locking is split by plane. The control plane (CreateQP, RegisterMR*,
// Close) serializes on NIC.mu and publishes copy-on-write snapshots of the
// QP and MR tables. The datapath (verbs, frame handling, timers) never
// touches NIC.mu: it resolves QPs and MRs through the snapshots and
// serializes per QP on that QP's own lock, so traffic on different QPs
// proceeds in parallel.
type NIC struct {
	fabric *Fabric
	mac    wire.MAC
	ip     wire.IPv4Addr
	cfg    Config

	mu       sync.Mutex // control plane only
	qps      map[uint32]*QP
	mrs      []*MR
	mrByRKey map[uint32]*MR
	nextQPN  uint32
	nextKey  uint32

	closed atomic.Bool
	dead   atomic.Bool // SetDead: drop all traffic, reversibly (crash injection)
	qpSnap atomic.Pointer[map[uint32]*QP]
	mrSnap atomic.Pointer[mrTable]

	rtoExpiries, replays atomic.Int64 // NICStats, bumped on the retry path only
}

// NICStats counts the Go-Back-N retry path of every QP on a NIC.
type NICStats struct {
	RTOExpiries int64 // retransmission ticks that found no progress and charged a retry
	Replays     int64 // send-queue replays, from an RTO expiry or a PSN-sequence NAK
}

// Stats returns a snapshot of the retry-path counters.
func (n *NIC) Stats() NICStats {
	return NICStats{RTOExpiries: n.rtoExpiries.Load(), Replays: n.replays.Load()}
}

// NewNIC creates a NIC, attaches it to the fabric, and returns it.
func NewNIC(f *Fabric, mac wire.MAC, ip wire.IPv4Addr, cfg Config) *NIC {
	if cfg.MTU <= 0 {
		cfg = DefaultConfig()
	}
	n := &NIC{
		fabric:   f,
		mac:      mac,
		ip:       ip,
		cfg:      cfg,
		qps:      make(map[uint32]*QP),
		mrByRKey: make(map[uint32]*MR),
		nextQPN:  0x11,
		nextKey:  0x1000,
	}
	n.publishQPsLocked()
	n.publishMRsLocked()
	f.Attach(n)
	return n
}

// publishQPsLocked snapshots the QP table for lock-free Input dispatch.
// Caller holds n.mu (or, in NewNIC, exclusive access).
func (n *NIC) publishQPsLocked() {
	qps := make(map[uint32]*QP, len(n.qps))
	for qpn, q := range n.qps {
		qps[qpn] = q
	}
	n.qpSnap.Store(&qps)
}

// publishMRsLocked snapshots the registration tables for lock-free address
// translation. Caller holds n.mu (or, in NewNIC, exclusive access).
func (n *NIC) publishMRsLocked() {
	t := &mrTable{
		mrs:    make([]*MR, len(n.mrs)),
		byRKey: make(map[uint32]*MR, len(n.mrByRKey)),
	}
	copy(t.mrs, n.mrs)
	for k, m := range n.mrByRKey {
		t.byRKey[k] = m
	}
	n.mrSnap.Store(t)
}

// MAC implements Device.
func (n *NIC) MAC() wire.MAC { return n.mac }

// nonRetainingInput marks the NIC's frames as recyclable: Input copies any
// payload bytes it keeps (into registered MRs) before returning.
func (n *NIC) nonRetainingInput() {}

// IP returns the NIC's IPv4 address.
func (n *NIC) IP() wire.IPv4Addr { return n.ip }

// Config returns the NIC's protocol configuration.
func (n *NIC) Config() Config { return n.cfg }

// Close stops all QP timers. The NIC stops transmitting retransmissions;
// outstanding WRs are flushed. Close acquires every QP's datapath lock, so
// it returns only after in-flight frame handlers and verbs have finished
// with registered memory, and later deliveries become no-ops; frames they
// built before Close may still be on their way out.
func (n *NIC) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed.Store(true)
	for _, q := range n.qps {
		q.mu.Lock()
		q.failAllLocked(StatusFlushed)
		q.mu.Unlock()
	}
}

// SetDead reversibly kills the NIC's datapath: while dead, every delivered
// frame is dropped on the floor and no QP emits a single packet — the node
// has fallen silent, exactly as a crashed host looks to its RoCE peers.
// Requesters with outstanding work against a dead NIC see Go-Back-N
// retransmissions expire and their WRs fail with StatusRetryExceeded, which
// is the failure-detection path replicated memory pools rely on. Unlike
// Close, SetDead(false) brings the NIC back (a restarted host).
func (n *NIC) SetDead(dead bool) { n.dead.Store(dead) }

// Dead reports whether the NIC is currently crash-injected silent.
func (n *NIC) Dead() bool { return n.dead.Load() }

// Reset drops every QP and memory registration, modeling a host reboot: the
// process's QPs, PSN state, and pinned regions are gone, and stale frames
// addressed to old QPNs are silently discarded (the QPN space is not
// reused). The NIC stays attached to the fabric; create fresh MRs and QPs
// to bring the node back into service.
func (n *NIC) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, q := range n.qps {
		q.mu.Lock()
		q.failAllLocked(StatusFlushed)
		q.mu.Unlock()
	}
	n.qps = make(map[uint32]*QP)
	n.mrs = nil
	n.mrByRKey = make(map[uint32]*MR)
	n.publishQPsLocked()
	n.publishMRsLocked()
}

// RegisterMR registers buf at virtual address base and returns the region.
// Remote peers address it with the returned RKey.
func (n *NIC) RegisterMR(base uint64, buf []byte) *MR {
	return n.RegisterMRLocked(base, buf, nil)
}

// RegisterMRLocked registers buf with a DMA lock: the NIC holds lock while
// DMA (local or remote) touches the region. Use for buffers that
// application threads mutate concurrently with engine DMA (the Cowbird
// queue sets).
//
// Lock-ordering invariant: a DMA lock is held only for the copy into or out
// of the region, under the lock of the QP doing it, and never across
// Fabric.Send: a WRITE's payload and a READ's response are serialized into
// the QP's frame queue under the lock and sent after it is released. A verb
// still sends on its caller's goroutine, and the fabric may run the peer's
// handler there, which copies into or out of the peer's regions. So verbs
// (PostSend) must never be called while holding a DMA lock, and a region's
// lock must not be held by anything that waits on a QP of the same fabric.
func (n *NIC) RegisterMRLocked(base uint64, buf []byte, lock sync.Locker) *MR {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := &MR{Base: base, Buf: buf, LKey: n.nextKey, RKey: n.nextKey + 1, Lock: lock}
	n.nextKey += 2
	n.mrs = append(n.mrs, m)
	n.mrByRKey[m.RKey] = m
	n.publishMRsLocked()
	return m
}

// CreateQP allocates a queue pair whose work requests complete into sendCQ,
// with the given initial request PSN. recvCQ is unused: no verb this stack
// posts completes on a receive queue. The parameter stays only because the
// benchmark probes call the three-argument form; it goes with them.
func (n *NIC) CreateQP(sendCQ, recvCQ *CQ, firstPSN uint32) *QP {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := &QP{
		nic:     n,
		qpn:     n.nextQPN,
		sendCQ:  sendCQ,
		nextPSN: firstPSN,
		ackPSN:  firstPSN,
	}
	n.nextQPN++
	n.qps[q.qpn] = q
	n.publishQPsLocked()
	return q
}

// ConnectPair is the in-process form of the Setup PSN exchange: it creates
// a QP on a whose sends complete into aSendCQ and a passive QP on b, tells
// each the other's endpoint and first PSN, and returns both connected.
// b's QP only responds, so its send CQ is a private throwaway.
// Deployments whose peers learn each other's endpoint over a control
// channel connect each side on its own (CreateQP, then QP.Connect).
func ConnectPair(a *NIC, aSendCQ *CQ, aPSN uint32, b *NIC, bPSN uint32) (aQP, bQP *QP) {
	aQP = a.CreateQP(aSendCQ, nil, aPSN)
	bQP = b.CreateQP(NewCQ(), nil, bPSN)
	aQP.Connect(RemoteEndpoint{QPN: bQP.QPN(), MAC: b.mac, IP: b.ip}, bPSN)
	bQP.Connect(RemoteEndpoint{QPN: aQP.QPN(), MAC: a.mac, IP: a.ip}, aPSN)
	return aQP, bQP
}

// Input implements Device: parse and dispatch one frame. The destination
// QP is read from the raw BTH and resolved in the published snapshot; the
// frame is decoded into that QP's scratch packet and handled under that QP's
// own lock, so Input may run on many goroutines at once — every sender's
// and the delay line's (Fabric.Send). A frame for no QP of the NIC is
// dropped.
func (n *NIC) Input(frame []byte) {
	if q := n.qpFor(frame); q != nil {
		n.input(q, frame)
	}
}

// input decodes frame into q's scratch packet and handles it under q.mu;
// whatever the handler emits (a response, an ACK or NAK, a replay) is sent
// once the lock is released.
func (n *NIC) input(q *QP, frame []byte) {
	if n.closed.Load() || n.dead.Load() {
		return
	}
	q.mu.Lock()
	defer q.unlock()
	if n.closed.Load() || !q.connected {
		return
	}
	p := &q.rx
	if err := p.DecodeFromBytes(frame); err != nil {
		return // not RoCE, corrupt, or truncated: drop silently
	}
	if p.BTH.OpCode.IsRequest() {
		q.handleRequest(p)
	} else {
		q.handleResponse(p)
	}
	p.Payload = nil // the frame is recycled once Input returns
}

// qpFor returns the QP a RoCE frame is addressed to, or nil (nonQPFlow is
// no QPN).
func (n *NIC) qpFor(frame []byte) *QP {
	return (*n.qpSnap.Load())[flowKey(frame)]
}

// build serializes one packet from q to its peer into a pooled frame buffer,
// or returns nil when the NIC is dead (a crashed host transmits nothing, not
// even retransmissions). Caller holds q.mu, which is what makes the per-QP
// tx scratch packet safe to reuse.
func (n *NIC) build(q *QP, op wire.OpCode, psn uint32, reth *wire.RETH, aeth *wire.AETH, payload []byte, ackReq bool) []byte {
	if n.dead.Load() {
		return nil
	}
	p := &q.tx
	n.fillEnvelope(p, q)
	p.BTH.OpCode = op
	p.BTH.PSN = psn & 0x00ffffff
	p.BTH.AckReq = ackReq
	if reth != nil {
		p.RETH = *reth
	}
	if aeth != nil {
		p.AETH = *aeth
	}
	p.Payload = payload
	frame, err := p.SerializeInto(n.fabric.pool.get(wire.WireLen(op, len(payload))))
	p.Payload = nil
	if err != nil {
		return nil
	}
	return frame
}

// emit builds one packet from q to its peer and queues it on q's frame
// queue, which QP.unlock sends once q.mu is released. Caller holds q.mu.
func (n *NIC) emit(q *QP, op wire.OpCode, psn uint32, reth *wire.RETH, aeth *wire.AETH, payload []byte, ackReq bool) {
	if fr := n.build(q, op, psn, reth, aeth, payload, ackReq); fr != nil {
		q.txq = append(q.txq, fr)
	}
}

// fillEnvelope sets the addressing fields for a packet from q to its peer.
func (n *NIC) fillEnvelope(p *wire.Packet, q *QP) {
	p.Eth.Src = n.mac
	p.Eth.Dst = q.remote.MAC
	p.IP.Src = n.ip
	p.IP.Dst = q.remote.IP
	p.UDP.SrcPort = uint16(0xC000 | q.qpn&0x3FFF)
	p.BTH.DestQP = q.remote.QPN
	// Unconditional: q.tx is reused across emits, so a stale PKey from a
	// previous packet must never leak into this one.
	p.BTH.PKey = q.fenceEpoch
}

// emitAETH queues an ACK/NAK carrying the given syndrome and PSN.
// Caller holds q.mu.
func (n *NIC) emitAETH(q *QP, syndrome uint8, psn uint32) {
	aeth := &wire.AETH{Syndrome: syndrome, MSN: q.msn & 0x00ffffff}
	n.emit(q, wire.OpAcknowledge, psn, nil, aeth, nil, false)
}
