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
	// RetransmitTimeout is the Go-Back-N retransmission timer.
	RetransmitTimeout time.Duration
	// MaxRetries bounds consecutive timeouts before a WR fails.
	MaxRetries int
}

// DefaultConfig returns the paper-faithful defaults.
func DefaultConfig() Config {
	return Config{MTU: 1024, RetransmitTimeout: 2 * time.Millisecond, MaxRetries: 25}
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

	rx wire.Packet // reusable decode target; Input is single-goroutine

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
// it returns only after in-flight frame handlers and verbs have finished,
// and later deliveries become no-ops.
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
// Lock-ordering invariant: DMA locks nest inside QP datapath locks, so
// verbs (PostSend, PostRecv) must never be called while holding a DMA lock.
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

// CreateQP allocates a queue pair with the given completion queues and an
// initial request PSN.
func (n *NIC) CreateQP(sendCQ, recvCQ *CQ, firstPSN uint32) *QP {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := &QP{
		nic:         n,
		qpn:         n.nextQPN,
		sendCQ:      sendCQ,
		recvCQ:      recvCQ,
		nextPSN:     firstPSN,
		ackPSN:      firstPSN,
		atomicCache: make(map[uint32]uint64),
	}
	n.nextQPN++
	n.qps[q.qpn] = q
	n.publishQPsLocked()
	return q
}

// ConnectPair is the in-process form of the Setup PSN exchange: it creates
// a QP on a whose sends complete into aSendCQ and a passive QP on b, tells
// each the other's endpoint and first PSN, and returns both connected.
// Neither side posts receives, so the remaining CQs are private throwaways.
// Deployments whose peers learn each other's endpoint over a control
// channel connect each side on its own (CreateQP, then QP.Connect).
func ConnectPair(a *NIC, aSendCQ *CQ, aPSN uint32, b *NIC, bPSN uint32) (aQP, bQP *QP) {
	aQP = a.CreateQP(aSendCQ, NewCQ(), aPSN)
	bQP = b.CreateQP(NewCQ(), NewCQ(), bPSN)
	aQP.Connect(RemoteEndpoint{QPN: bQP.QPN(), MAC: b.mac, IP: b.ip}, bPSN)
	bQP.Connect(RemoteEndpoint{QPN: aQP.QPN(), MAC: a.mac, IP: a.ip}, aPSN)
	return aQP, bQP
}

// Input implements Device: parse and dispatch one frame. The inbox calls it
// from a single goroutine, so the decode target is reused across frames; the
// destination QP is resolved in the published snapshot and handled under
// that QP's own lock.
func (n *NIC) Input(frame []byte) {
	if n.closed.Load() || n.dead.Load() {
		return
	}
	if err := n.rx.DecodeFromBytes(frame); err != nil {
		return // not RoCE, corrupt, or truncated: drop silently
	}
	q := (*n.qpSnap.Load())[n.rx.BTH.DestQP]
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if n.closed.Load() || !q.connected {
		return
	}
	if n.rx.BTH.OpCode.IsRequest() {
		q.handleRequest(&n.rx)
	} else {
		q.handleResponse(&n.rx)
	}
}

// sendPacket serializes q.tx (or any packet) into a pooled frame buffer and
// transmits it. Caller holds q.mu — which is what makes the per-QP tx
// scratch packet safe to reuse.
func (n *NIC) sendPacket(p *wire.Packet) {
	if n.dead.Load() {
		return // crashed hosts transmit nothing, not even retransmissions
	}
	sz := 0
	if p.BTH.OpCode.HasPayload() {
		sz = len(p.Payload)
	}
	frame, err := p.SerializeInto(n.fabric.pool.get(wire.WireLen(p.BTH.OpCode, sz)))
	if err != nil {
		return
	}
	n.fabric.Send(frame)
}

// emit serializes and transmits one packet from q to its peer.
// Caller holds q.mu.
func (n *NIC) emit(q *QP, op wire.OpCode, psn uint32, reth *wire.RETH, aeth *wire.AETH, payload []byte, ackReq bool) {
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
	n.sendPacket(p)
}

// emitAtomic transmits an atomic request.
// Caller holds q.mu.
func (n *NIC) emitAtomic(q *QP, op wire.OpCode, psn uint32, ath *wire.AtomicETH) {
	p := &q.tx
	n.fillEnvelope(p, q)
	p.BTH.OpCode = op
	p.BTH.PSN = psn & 0x00ffffff
	p.BTH.AckReq = true
	p.AtomicETH = *ath
	p.Payload = nil
	n.sendPacket(p)
}

// emitAtomicAck transmits the atomic response carrying the original value.
// Caller holds q.mu.
func (n *NIC) emitAtomicAck(q *QP, psn uint32, orig uint64) {
	p := &q.tx
	n.fillEnvelope(p, q)
	p.BTH.OpCode = wire.OpAtomicAcknowledge
	p.BTH.PSN = psn & 0x00ffffff
	p.BTH.AckReq = false
	p.AETH = wire.AETH{Syndrome: wire.SyndromeACK, MSN: q.msn & 0x00ffffff}
	p.AtomicAck = orig
	p.Payload = nil
	n.sendPacket(p)
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

// emitAETH transmits an ACK/NAK carrying the given syndrome and PSN.
// Caller holds q.mu.
func (n *NIC) emitAETH(q *QP, syndrome uint8, psn uint32) {
	aeth := &wire.AETH{Syndrome: syndrome, MSN: q.msn & 0x00ffffff}
	n.emit(q, wire.OpAcknowledge, psn, nil, aeth, nil, false)
}
