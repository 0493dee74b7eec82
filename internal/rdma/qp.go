package rdma

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cowbird/internal/container"
	"cowbird/internal/wire"
)

// RemoteEndpoint identifies the peer of a reliably-connected QP.
type RemoteEndpoint struct {
	QPN uint32
	MAC wire.MAC
	IP  wire.IPv4Addr
}

// WorkRequest describes an operation posted to a QP's send queue.
type WorkRequest struct {
	ID       uint64
	Verb     Verb   // VerbWrite or VerbRead
	LocalVA  uint64 // source (write) or destination (read)
	Length   uint32
	RemoteVA uint64
	RKey     uint32
}

// Post/connect errors.
var (
	ErrNotConnected = errors.New("rdma: QP not connected")
	ErrQPError      = errors.New("rdma: QP in error state")
	ErrBadVerb      = errors.New("rdma: unsupported verb for PostSend")
)

// QPError is what PostSend returns on a QP in the error state. It matches
// ErrQPError (errors.Is) and carries the status that moved the QP there, so
// a post refused after a fencing NAK still says StatusFenced: with inline
// delivery the NAK can land between two posts of one round, before the
// poster has seen a single completion.
type QPError struct {
	Status Status
}

func (e *QPError) Error() string { return "rdma: QP in error state: " + e.Status.String() }

// Is makes errors.Is(err, ErrQPError) hold.
func (e *QPError) Is(target error) bool { return target == ErrQPError }

type sendWR struct {
	id       uint64
	verb     Verb
	local    []byte
	mr       *MR // region backing local, for DMA locking
	remoteVA uint64
	rkey     uint32
	firstPSN uint32
	lastPSN  uint32
	respNext uint32 // reads: next response PSN expected
	done     bool   // reads: response received
	canceled bool   // local buffer abandoned: suppress response DMA
}

// writeCtx tracks responder-side reassembly of a segmented RDMA write. The
// payload offset of each packet is derived from its PSN (offset =
// (psn-basePSN)*MTU), never from a running cursor: under Go-Back-N several
// replay streams can interleave out of phase, and a cursor would place
// duplicate middles at the wrong offset.
type writeCtx struct {
	mr      *MR
	buf     []byte
	basePSN uint32
}

// QP is a reliably-connected queue pair. All methods are safe for
// concurrent use; internally each QP serializes on its own datapath lock.
// Queues are rings, and reassembly contexts live inline, so the
// steady-state datapath allocates nothing.
type QP struct {
	nic    *NIC
	qpn    uint32
	mu     sync.Mutex // per-QP datapath lock
	remote RemoteEndpoint

	connected bool
	errored   bool
	errStatus Status // the status that moved the QP to the error state

	sendCQ *CQ

	// Requester state.
	nextPSN uint32 // next unassigned request PSN
	ackPSN  uint32 // all request PSNs below this are acknowledged
	sq      container.Ring[sendWR]
	retries int // consecutive expiries, reset when a WR completes
	// The retransmission timer ticks; nothing re-aims it. Armed on the
	// idle→busy edge — a send that leaves work outstanding while ticking is
	// false (settle) — it re-arms itself once per RTO while work is
	// outstanding. An inline round trip leaves nothing outstanding, so it
	// never touches the timer. progress records whether anything was posted
	// or acknowledged since the previous tick: a tick that finds it clear, and
	// no frame of the connection due on the fabric's delay line, charges a
	// retry, doubles the RTO and replays the send queue. A Go-Back-N replay
	// is not progress.
	timer     *time.Timer
	ticking   bool
	progress  bool
	timing    bool // an RTT sample is in flight (the fields at the end)
	sampleDue bool // a tick passed since the last sample began
	posted    bool // a post since the last settle: its PSN may start a sample
	timerArms int  // how often the timer was armed from idle, for tests

	// Per-QP Go-Back-N overrides; zero values fall back to the NIC-wide
	// Config knobs (SetRetryPolicy).
	floorOverride      time.Duration
	maxRetriesOverride int

	// fenceEpoch is stamped into BTH.PKey on every packet this QP emits
	// (including Go-Back-N retransmissions, which re-serialize through
	// fillEnvelope). Responders compare it against the target MR's fence
	// floor on WRITEs. Zero — the default — is the unfenced epoch every
	// floor admits.
	fenceEpoch uint16

	// Responder state.
	ePSN      uint32 // next expected request PSN
	wctx      writeCtx
	wctxValid bool
	msn       uint32

	// tx is the reusable serialization scratch for every packet this QP
	// emits and rx the decode target of every frame it receives; q.mu makes
	// both single-writer. txq holds the frames built under q.mu, in the
	// order they were built, until unlock sends them: no QP lock is held
	// across Fabric.Send. sending marks the one goroutine sending them, whose
	// batch buffer is txOut.
	tx      wire.Packet
	rx      wire.Packet
	txq     [][]byte
	txOut   [][]byte
	sending bool

	// RTT sampling: one PSN at a time, started when a post leaves work
	// outstanding on the idle→busy edge or after a tick (settle), so the
	// clock is read about once per RTO and never on an inline round trip.
	// Off the hot cache lines: read only when a sample starts or ends, and
	// at ticks.
	timedPSN uint32 // the sample ends when ackPSN passes it
	timedAt  time.Time
	est      RTOEstimator // the RTO: measured, backed off per expiry
}

// QPN returns the queue pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// Remote returns the connected peer, valid after Connect.
func (q *QP) Remote() RemoteEndpoint { return q.remote }

// SetRetryPolicy overrides the NIC-wide Go-Back-N knobs for this QP
// alone. Zero values keep the NIC defaults; floor is the floor of the
// measured RTO (RTO). The intended use is asymmetric failure budgets: a
// requester that must detect a dead peer quickly (an offload engine probing
// memory-pool replicas) tightens its pool-facing QPs while paths to
// healthy-but-occasionally-slow peers keep the forgiving defaults.
func (q *QP) SetRetryPolicy(floor time.Duration, maxRetries int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.floorOverride = floor
	q.maxRetriesOverride = maxRetries
	if q.ticking {
		q.timer.Reset(q.rto()) // the tick in flight was aimed with the old RTO
	}
}

// SetFenceEpoch sets the fencing epoch this QP presents in BTH.PKey. The
// wiring layer stamps it at bind time and a promoted standby re-stamps its
// QPs with the bumped epoch before serving; an old primary keeps its stale
// epoch, so its in-flight writes (and their retransmissions) bounce off
// every fenced region instead of landing.
func (q *QP) SetFenceEpoch(epoch uint16) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.fenceEpoch = epoch
}

// FenceEpoch returns the fencing epoch this QP presents.
func (q *QP) FenceEpoch() uint16 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.fenceEpoch
}

// CancelSend fences the local buffer of a posted-but-incomplete work
// request: a response (or retransmitted response) arriving after the call
// will never DMA into the WR's local memory. Everything else about the WR
// is unchanged — it keeps its place in the Go-Back-N stream, still
// retransmits, and still completes on the send CQ (the caller is expected
// to discard that CQE) — so canceling never perturbs PSN accounting for
// the requests behind it. This is the software analogue of what a verbs
// consumer gets from flushing a QP through the error state, minus killing
// the QP: an owner that abandons a WR (timed out waiting, round aborted)
// may reuse or free the buffer immediately. Returns false if the WR is no
// longer in the send queue (already completed — its DMA, if any, is done).
func (q *QP) CancelSend(id uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < q.sq.Len(); i++ {
		if s := q.sq.At(i); s.id == id {
			s.canceled = true
			return true
		}
	}
	return false
}

// RTO returns the QP's retransmission timeout: its RTOEstimator's, floored
// at Config.RetransmitTimeout or the SetRetryPolicy value.
func (q *QP) RTO() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rto()
}

// rto returns the effective retransmission timeout. Caller holds q.mu.
func (q *QP) rto() time.Duration {
	floor := q.floorOverride
	if floor <= 0 {
		floor = q.nic.cfg.RetransmitTimeout
	}
	return q.est.RTO(floor)
}

// maxRetries returns the effective retry bound. Caller holds q.mu.
func (q *QP) maxRetries() int {
	if q.maxRetriesOverride > 0 {
		return q.maxRetriesOverride
	}
	return q.nic.cfg.MaxRetries
}

// FirstPSN returns the initial PSN this QP uses for its requests. Exposed
// so the control plane can hand it to an offload engine during Setup.
func (q *QP) FirstPSN() uint32 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.nextPSN
}

// ExpectedPSN returns the responder-side expected PSN (for Setup RPCs).
func (q *QP) ExpectedPSN() uint32 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ePSN
}

// ResetExpectedPSN is the control-plane QP-modify operation (a transition
// back through RTR with a new PSN): the responder abandons any in-progress
// message reassembly and accepts the peer's requests starting at psn.
// Cowbird-P4 uses it to resynchronize after drain-based loss recovery.
func (q *QP) ResetExpectedPSN(psn uint32) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ePSN = psn
	q.wctx = writeCtx{}
	q.wctxValid = false
}

// Connect binds the QP to its peer. remoteFirstPSN must equal the peer's
// initial request PSN (exchanged out of band, as RDMA CM would).
func (q *QP) Connect(remote RemoteEndpoint, remoteFirstPSN uint32) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.remote = remote
	q.ePSN = remoteFirstPSN
	q.connected = true
}

// PostSend queues wr and transmits its packets. Completion is reported on
// the QP's send CQ. Equivalent to ibv_post_send with IBV_SEND_SIGNALED. The
// packets leave once the QP's lock is released (unlock), on this goroutine
// unless another is already sending the QP's frames; on a fabric that
// delivers inline, the responder's answer may complete wr before PostSend
// returns.
func (q *QP) PostSend(wr WorkRequest) error {
	q.mu.Lock()
	defer q.unlock()
	if !q.connected {
		return ErrNotConnected
	}
	if q.errored {
		return &QPError{Status: q.errStatus}
	}
	mr, local, err := q.nic.translateLocal(wr.LocalVA, wr.Length)
	if err != nil {
		return err
	}
	mtu := q.nic.cfg.MTU
	npkts := (int(wr.Length) + mtu - 1) / mtu
	if npkts == 0 {
		npkts = 1
	}
	if wr.Verb != VerbWrite && wr.Verb != VerbRead {
		return fmt.Errorf("%w: %v", ErrBadVerb, wr.Verb)
	}
	q.sq.Push(sendWR{
		id:       wr.ID,
		verb:     wr.Verb,
		local:    local,
		mr:       mr,
		remoteVA: wr.RemoteVA,
		rkey:     wr.RKey,
		firstPSN: q.nextPSN,
		lastPSN:  q.nextPSN + uint32(npkts) - 1,
		respNext: q.nextPSN,
	})
	q.nextPSN += uint32(npkts)
	q.transmitWR(q.sq.At(q.sq.Len() - 1))
	// A post is progress — except the one that starts the clock (the
	// idle→busy edge): the first tick is that post's own RTO.
	q.progress = q.ticking
	q.posted = true
	return nil
}

// unlock releases q.mu and sends the frames built under it. One goroutine
// sends a QP's frames at a time, so they leave in the order they were
// built: if another is sending, it sends these too, after its own, and this
// call only releases the lock. The goroutine that empties txq settles the
// retransmission timer. Send may run the peer's handler, and through it
// this QP's, on this goroutine (Fabric.Send): that nested handler finds
// sending set and leaves its frames to the loop below.
func (q *QP) unlock() {
	if q.sending {
		q.mu.Unlock()
		return
	}
	if len(q.txq) > 0 {
		q.sending = true
		for len(q.txq) > 0 {
			out := q.txq
			q.txq = q.txOut[:0]
			q.mu.Unlock()
			for i, fr := range out {
				out[i] = nil
				q.nic.fabric.Send(fr)
			}
			q.mu.Lock()
			q.txOut = out[:0]
		}
		q.sending = false
	}
	q.settle()
	q.mu.Unlock()
}

// settle arms the retransmission timer when the QP's frames are out and
// work is still outstanding, and starts an RTT sample there, timing the
// last posted PSN, if a post is among what was sent and the timer was idle
// or has ticked since the last sample. A post whose round trip ended before
// its frames were all out (inline delivery) spent no time on the wire: it
// is sampled as zero, without a clock read. Otherwise the only samples of an
// inline path would be the ones a loss left outstanding, and its RTO would
// settle at the first loss's wait instead of its floor. Caller holds q.mu.
func (q *QP) settle() {
	posted := q.posted
	q.posted = false
	if q.errored {
		return
	}
	if q.sq.Len() == 0 {
		if posted {
			q.est.Observe(0)
		}
		return
	}
	edge := !q.ticking
	if edge {
		q.timerArms++
		q.armTimer()
	}
	if posted && !q.timing && (edge || q.sampleDue) {
		q.timing, q.sampleDue = true, false
		q.timedPSN, q.timedAt = q.nextPSN-1, time.Now()
	}
}

// transmitWR builds all packets of s into txq. A WRITE's payload is copied
// out of the local region under its DMA lock, so a concurrent remote write
// into the same MR cannot race the read. Caller holds q.mu.
func (q *QP) transmitWR(s *sendWR) {
	mtu := q.nic.cfg.MTU
	switch s.verb {
	case VerbRead:
		reth := wire.RETH{VA: s.remoteVA, RKey: s.rkey, DMALen: uint32(len(s.local))}
		q.nic.emit(q, wire.OpReadRequest, s.firstPSN, &reth, nil, nil, true)
	case VerbWrite:
		n := len(s.local)
		npkts := int(s.lastPSN-s.firstPSN) + 1
		s.mr.lockDMA()
		for i := 0; i < npkts; i++ {
			lo := i * mtu
			hi := lo + mtu
			if hi > n {
				hi = n
			}
			var op wire.OpCode
			switch {
			case npkts == 1:
				op = wire.OpWriteOnly
			case i == 0:
				op = wire.OpWriteFirst
			case i == npkts-1:
				op = wire.OpWriteLast
			default:
				op = wire.OpWriteMiddle
			}
			var reth *wire.RETH
			if op == wire.OpWriteFirst || op == wire.OpWriteOnly {
				reth = &wire.RETH{VA: s.remoteVA, RKey: s.rkey, DMALen: uint32(n)}
			}
			q.nic.emit(q, op, s.firstPSN+uint32(i), reth, nil, s.local[lo:hi], i == npkts-1)
		}
		s.mr.unlockDMA()
	}
}

// armTimer schedules the next tick one RTO from now. Caller holds q.mu.
func (q *QP) armTimer() {
	q.ticking = true
	if q.timer == nil {
		q.timer = time.AfterFunc(q.rto(), q.onTick)
	} else {
		q.timer.Reset(q.rto())
	}
}

// stopTimer halts the tick when the QP's requester life ends (error state,
// NIC close or reset); a tick already waiting for q.mu lapses on its own.
// Caller holds q.mu.
func (q *QP) stopTimer() {
	if q.timer != nil {
		q.timer.Stop()
	}
	q.ticking = false
}

// onTick is the retransmission timer. With nothing outstanding it lapses
// until the next post; with its own frames still being sent it counts that
// as progress; with progress since the previous tick it only clears the
// flag; with a frame of its connection due on the fabric's delay line, or in
// delivery there, it re-arms — a request to the peer or the peer's answer,
// either way slow, not silent.
// Otherwise it implements Go-Back-N recovery: double the RTO, rewind to the
// oldest unacked request and replay every outstanding work request (§5.3:
// "Cowbird-P4 can detect a timeout and utilize a Go-Back-N approach by
// resetting the local head pointer and PSN and re-executing ... from that
// point" — the same strategy the software requester uses).
func (q *QP) onTick() {
	q.mu.Lock()
	defer q.unlock()
	q.ticking = false
	if q.sq.Len() == 0 || q.errored {
		return
	}
	q.sampleDue = true // the next post may time a fresh PSN
	if q.sending {
		// This QP's own frames are still on their way out, on a goroutine
		// the scheduler has not run: slow, not silent. Counted as progress,
		// the RTO runs again from when they are out.
		q.progress = true
		q.armTimer()
		return
	}
	if q.progress {
		q.progress = false
		q.armTimer()
		return
	}
	if q.nic.fabric.line.queued(flow{macKey(q.nic.mac[:]), q.qpn}, flow{macKey(q.remote.MAC[:]), q.remote.QPN}) {
		q.armTimer()
		return
	}
	q.retries++
	q.est.Expire()
	q.nic.rtoExpiries.Add(1)
	if q.retries > q.maxRetries() {
		q.failAllLocked(StatusRetryExceeded)
		return
	}
	q.replay()
	q.armTimer()
}

// replay retransmits every outstanding work request. Karn's rule: the RTT
// sample in flight is abandoned, once the path is measured. Before, it runs
// on from the first transmission and can only overestimate; abandoned, the
// first completion would leave the RTO at InitialRTO on a slower path.
// Caller holds q.mu.
func (q *QP) replay() {
	if q.est.Measured() {
		q.timing = false
	}
	q.nic.replays.Add(1)
	for i := 0; i < q.sq.Len(); i++ {
		q.transmitWR(q.sq.At(i))
	}
}

// failAllLocked flushes the send queue (which may be empty) with the given
// status and moves the QP to the error state; the first such status is the
// one later posts report (QPError). Caller holds q.mu.
func (q *QP) failAllLocked(st Status) {
	for q.sq.Len() > 0 {
		s := q.sq.Pop()
		q.sendCQ.push(CQE{WRID: s.id, QPN: q.qpn, Status: st, Verb: s.verb, Bytes: uint32(len(s.local))})
	}
	if !q.errored {
		q.errored, q.errStatus = true, st
	}
	q.stopTimer()
}

// extend24 reconstructs a full-width PSN from its 24-bit wire form, choosing
// the candidate nearest to ref.
func extend24(ref uint32, w uint32) uint32 {
	base := int64(ref&^0x00ffffff) | int64(w)
	best := base
	bestDiff := absDiff(base, int64(ref))
	if cand := base - 0x1000000; cand >= 0 {
		if d := absDiff(cand, int64(ref)); d < bestDiff {
			best, bestDiff = cand, d
		}
	}
	if d := absDiff(base+0x1000000, int64(ref)); d < bestDiff {
		best = base + 0x1000000
	}
	return uint32(best)
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// --- Responder path -------------------------------------------------------

// handleRequest processes a requester-initiated packet addressed to q.
// Caller holds q.mu.
func (q *QP) handleRequest(p *wire.Packet) {
	psn := extend24(q.ePSN, p.BTH.PSN)
	if psn > q.ePSN {
		// Sequence gap: NAK with the expected PSN and drop (S4/§5.3).
		q.nic.emitAETH(q, wire.SyndromeNAKPSN, q.ePSN)
		return
	}
	isNew := psn == q.ePSN
	op := p.BTH.OpCode
	switch {
	case op.IsWrite() && !isNew:
		// A duplicate: its bytes have landed. Writing them again, or taking a
		// duplicate First's RETH as the write context, would let it clobber
		// a newer message mid-reassembly, whose later segments would then
		// land nowhere while ePSN moves on.
		if p.BTH.AckReq {
			q.nic.emitAETH(q, wire.SyndromeACK, psn)
		}

	case op.IsWrite():
		if op == wire.OpWriteFirst || op == wire.OpWriteOnly {
			mr, buf, err := q.nic.translateRemoteKey(p.RETH.RKey, p.RETH.VA, p.RETH.DMALen)
			if err != nil {
				q.nic.emitAETH(q, wire.SyndromeNAKAcc, psn)
				return
			}
			if !mr.admitsEpoch(p.BTH.PKey) {
				// Fenced: the writer's epoch is stale. Reject at message
				// start, before any byte lands; without a write context the
				// message's middle/last packets are ignored too.
				q.nic.emitAETH(q, wire.SyndromeNAKFenced, psn)
				return
			}
			q.wctx = writeCtx{mr: mr, buf: buf, basePSN: psn}
			q.wctxValid = true
		}
		// A middle or last with no context (ResetExpectedPSN dropped it)
		// lands nothing.
		if q.wctxValid {
			byteOff := int64(psn-q.wctx.basePSN) * int64(q.nic.cfg.MTU)
			if byteOff <= int64(len(q.wctx.buf)) {
				q.wctx.mr.lockDMA()
				copy(q.wctx.buf[byteOff:], p.Payload)
				q.wctx.mr.unlockDMA()
			}
		}
		q.ePSN++
		if op == wire.OpWriteLast || op == wire.OpWriteOnly {
			q.wctx = writeCtx{}
			q.wctxValid = false
			q.msn++
		}
		if p.BTH.AckReq {
			q.nic.emitAETH(q, wire.SyndromeACK, psn)
		}

	case op == wire.OpReadRequest:
		mr, buf, err := q.nic.translateRemoteKey(p.RETH.RKey, p.RETH.VA, p.RETH.DMALen)
		if err != nil {
			q.nic.emitAETH(q, wire.SyndromeNAKAcc, psn)
			return
		}
		mtu := q.nic.cfg.MTU
		npkts := (len(buf) + mtu - 1) / mtu
		if npkts == 0 {
			npkts = 1
		}
		if isNew {
			q.ePSN += uint32(npkts)
		}
		q.msn++
		mr.lockDMA()
		for i := 0; i < npkts; i++ {
			lo := i * mtu
			hi := lo + mtu
			if hi > len(buf) {
				hi = len(buf)
			}
			var rop wire.OpCode
			switch {
			case npkts == 1:
				rop = wire.OpReadResponseOnly
			case i == 0:
				rop = wire.OpReadResponseFirst
			case i == npkts-1:
				rop = wire.OpReadResponseLast
			default:
				rop = wire.OpReadResponseMiddle
			}
			aeth := &wire.AETH{Syndrome: wire.SyndromeACK, MSN: q.msn & 0x00ffffff}
			if rop == wire.OpReadResponseMiddle {
				aeth = nil
			}
			q.nic.emit(q, rop, psn+uint32(i), nil, aeth, buf[lo:hi], false)
		}
		mr.unlockDMA()
	}
}

// --- Requester path --------------------------------------------------------

// handleResponse processes a responder-initiated packet. Caller holds q.mu.
func (q *QP) handleResponse(p *wire.Packet) {
	op := p.BTH.OpCode
	switch {
	case op == wire.OpAcknowledge:
		switch {
		case p.AETH.Syndrome == wire.SyndromeACK:
			psn := extend24(q.ackPSN, p.BTH.PSN)
			if psn >= q.ackPSN {
				q.ackPSN = psn + 1
				q.progress = true
				q.completeAcked()
			}
		case p.AETH.Syndrome == wire.SyndromeNAKPSN:
			// Responder expects an earlier PSN: replay everything outstanding.
			// The replay is not progress; the tick keeps its schedule.
			q.replay()
		case p.AETH.Syndrome == wire.SyndromeRNRNAK:
			// Receiver not ready. This stack posts no SEND, so none of its
			// responders sends one; a frame from outside, over the UDP
			// bridge, is left to the retransmission timer.
		case p.AETH.Syndrome == wire.SyndromeNAKFenced:
			// This QP's epoch has been superseded: the owner was deposed.
			// Terminal for everything outstanding — replaying would bounce
			// identically, and the owner must stop serving.
			q.failAllLocked(StatusFenced)
		case p.AETH.IsNAK():
			q.failAllLocked(StatusRemoteAccessError)
		}

	case op.IsReadResponse():
		psn := extend24(q.ackPSN, p.BTH.PSN)
		// A duplicate is ignored and a gap left to the timer.
		if s := q.responseTarget(psn); s != nil && s.verb == VerbRead && psn == s.respNext {
			if !s.canceled {
				off := int(psn-s.firstPSN) * q.nic.cfg.MTU
				s.mr.lockDMA()
				copy(s.local[off:], p.Payload)
				s.mr.unlockDMA()
			}
			s.respNext = psn + 1
			if psn == s.lastPSN {
				s.done = true
			}
			q.progress = true
			// A read response acknowledges every earlier request PSN.
			if s.firstPSN > q.ackPSN {
				q.ackPSN = s.firstPSN
			}
			if s.done && psn+1 > q.ackPSN {
				q.ackPSN = psn + 1
			}
		}
		q.completeAcked()
	}
}

// responseTarget returns the outstanding READ that response PSN psn belongs
// to — or nil if there is none, or if an earlier READ of this QP is still
// incomplete. An RC responder executes and answers requests in PSN order, so
// a response that overtakes an earlier one means the earlier one was lost: hardware discards the later response and Go-Back-N replays
// both, in order. Accepting it instead would let the replayed earlier request
// observe remote memory *after* the later one did — a requester that reads a
// tail pointer and then the entries below it (the spot engine's fused probe)
// would apply a newer tail to an older snapshot. Caller holds q.mu.
func (q *QP) responseTarget(psn uint32) *sendWR {
	for i := 0; i < q.sq.Len(); i++ {
		s := q.sq.At(i)
		if s.verb != VerbRead {
			continue
		}
		if psn >= s.firstPSN && psn <= s.lastPSN {
			return s
		}
		if !s.done {
			return nil
		}
	}
	return nil
}

// completeAcked ends the RTT sample once ackPSN passes the timed PSN, and
// retires in-order completed work requests from the head of the send queue.
// Caller holds q.mu.
func (q *QP) completeAcked() {
	if q.timing && q.ackPSN > q.timedPSN {
		q.timing = false
		q.est.Observe(time.Since(q.timedAt))
	}
	progressed := false
	for q.sq.Len() > 0 {
		s := q.sq.Front()
		ready := s.done
		if s.verb == VerbWrite {
			ready = s.lastPSN < q.ackPSN
		}
		if !ready {
			break
		}
		cqe := CQE{
			WRID: s.id, QPN: q.qpn, Status: StatusOK,
			Verb: s.verb, Bytes: uint32(len(s.local)),
		}
		q.sq.Pop()
		q.sendCQ.push(cqe)
		progressed = true
	}
	if progressed {
		q.retries = 0
		q.est.Progress()
	}
}
