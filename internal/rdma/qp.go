package rdma

import (
	"encoding/binary"
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
	Verb     Verb   // write, read, send, or an atomic
	LocalVA  uint64 // source (write/send), destination (read/atomics: original value)
	Length   uint32 // ignored for atomics (always 8)
	RemoteVA uint64 // ignored for VerbSend
	RKey     uint32 // ignored for VerbSend

	// Atomic operands: VerbCmpSwap stores SwapAdd iff the target equals
	// Compare; VerbFetchAdd adds SwapAdd. Both return the original value
	// into LocalVA.
	Compare uint64
	SwapAdd uint64
}

// Post/connect errors.
var (
	ErrNotConnected = errors.New("rdma: QP not connected")
	ErrQPError      = errors.New("rdma: QP in error state")
	ErrBadVerb      = errors.New("rdma: unsupported verb for PostSend")
)

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
	done     bool   // reads/atomics: response received
	canceled bool   // local buffer abandoned: suppress response DMA
	compare  uint64 // atomics
	swapAdd  uint64
}

type recvWR struct {
	id  uint64
	buf []byte
	mr  *MR
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

// recvCtx tracks responder-side reassembly of a segmented SEND, with the
// same PSN-derived offsets as writeCtx.
type recvCtx struct {
	wr      recvWR
	basePSN uint32
	bytes   int // total payload length, recorded at the Last packet
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

	sendCQ *CQ
	recvCQ *CQ

	// Requester state.
	nextPSN uint32 // next unassigned request PSN
	ackPSN  uint32 // all request PSNs below this are acknowledged
	sq      container.Ring[sendWR]
	retries int
	// The retransmission timer ticks; nothing re-aims it. Armed on the
	// idle→busy edge (a post that finds ticking false), it re-arms itself once
	// per RTO while work is outstanding. progress records whether anything was
	// posted or acknowledged since the previous tick: a tick that finds it
	// clear charges a retry and replays the send queue, so n consecutive
	// retries take [n·RTO, (n+1)·RTO). A Go-Back-N replay is not progress.
	timer     *time.Timer
	ticking   bool
	progress  bool
	timing    bool // an RTT sample is in flight (the fields at the end)
	sampleDue bool // a tick passed since the last sample began
	timerArms int  // how often the timer was armed from idle, for tests

	// Per-QP Go-Back-N overrides; zero values fall back to the NIC-wide
	// Config knobs (SetRetryPolicy).
	rtoOverride        time.Duration
	maxRetriesOverride int

	// fenceEpoch is stamped into BTH.PKey on every packet this QP emits
	// (including Go-Back-N retransmissions, which re-serialize through
	// fillEnvelope). Responders compare it against the target MR's fence
	// floor on WRITEs and atomics. Zero — the default — is the unfenced
	// epoch every floor admits.
	fenceEpoch uint16

	// Responder state.
	ePSN      uint32 // next expected request PSN
	wctx      writeCtx
	wctxValid bool
	rctx      recvCtx
	rctxValid bool
	recvQ     container.Ring[recvWR]
	msn       uint32

	// atomicCache replays atomic responses for Go-Back-N duplicates
	// without re-executing them (atomics are not idempotent). Keyed by
	// PSN; bounded FIFO.
	atomicCache map[uint32]uint64
	atomicOrder container.Ring[uint32]

	// tx is the reusable serialization scratch for every packet this QP
	// emits; q.mu makes it single-writer.
	tx wire.Packet

	// RTT sampling: one PSN at a time, posted on the idle→busy edge or after
	// a tick, so the clock is read about once per RTO. Off the hot cache
	// lines: read only when a sample starts or ends. srtt is 0 until one ends.
	timedPSN     uint32 // the sample ends when ackPSN passes it
	timedAt      time.Time
	srtt, rttvar time.Duration
}

// QPN returns the queue pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// Remote returns the connected peer, valid after Connect.
func (q *QP) Remote() RemoteEndpoint { return q.remote }

// SetRetryPolicy overrides the NIC-wide Go-Back-N knobs for this QP
// alone. Zero values keep the NIC defaults; rto is the floor of the
// measured RTO (RTO). The intended use is asymmetric failure budgets: a
// requester that must detect a dead peer quickly (an offload engine probing
// memory-pool replicas) tightens its pool-facing QPs while paths to
// healthy-but-occasionally-slow peers keep the forgiving defaults.
func (q *QP) SetRetryPolicy(rto time.Duration, maxRetries int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.rtoOverride = rto
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

// initialRTO is RFC 6298's conservative RTO for a path not yet measured,
// scaled to an in-process fabric. maxRTO caps the measured RTO, so a dead
// peer fails within (MaxRetries+2)·maxRTO however slow its path had been.
const initialRTO, maxRTO = 20 * time.Millisecond, 100 * time.Millisecond

// RTO returns the QP's current retransmission timeout: SRTT + 4·RTTVAR of its
// own round trips (initialRTO before the first), capped at maxRTO, floored
// at the configured timeout (Config.RetransmitTimeout or SetRetryPolicy).
func (q *QP) RTO() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rto()
}

// rto returns the effective retransmission timeout. Caller holds q.mu.
func (q *QP) rto() time.Duration {
	floor := q.rtoOverride
	if floor <= 0 {
		floor = q.nic.cfg.RetransmitTimeout
	}
	measured := initialRTO
	if q.srtt > 0 {
		measured = min(q.srtt+4*q.rttvar, maxRTO)
	}
	return max(floor, measured)
}

// observeRTT folds one round-trip sample into SRTT and RTTVAR with RFC 6298's
// gains (1/8, 1/4). Caller holds q.mu.
func (q *QP) observeRTT(r time.Duration) {
	r = max(r, 1) // a zero SRTT reads as unmeasured
	if q.srtt == 0 {
		q.srtt, q.rttvar = r, r/2
		return
	}
	q.rttvar += (time.Duration(absDiff(int64(q.srtt), int64(r))) - q.rttvar) / 4
	q.srtt += (r - q.srtt) / 8
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
	q.rctx = recvCtx{}
	q.rctxValid = false
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

// PostRecv posts a receive buffer for incoming SENDs.
func (q *QP) PostRecv(id uint64, localVA uint64, length uint32) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	mr, buf, err := q.nic.translateLocal(localVA, length)
	if err != nil {
		return err
	}
	q.recvQ.Push(recvWR{id: id, buf: buf, mr: mr})
	return nil
}

// PostSend queues wr and transmits its packets. Completion is reported on
// the QP's send CQ. Equivalent to ibv_post_send with IBV_SEND_SIGNALED.
func (q *QP) PostSend(wr WorkRequest) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.connected {
		return ErrNotConnected
	}
	if q.errored {
		return ErrQPError
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
	switch wr.Verb {
	case VerbWrite, VerbRead, VerbSend:
	case VerbCmpSwap, VerbFetchAdd:
		// Atomics operate on exactly 8 bytes and consume one PSN.
		mr, local, err = q.nic.translateLocal(wr.LocalVA, 8)
		if err != nil {
			return err
		}
		npkts = 1
	default:
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
		compare:  wr.Compare,
		swapAdd:  wr.SwapAdd,
	})
	q.nextPSN += uint32(npkts)
	s := q.sq.At(q.sq.Len() - 1)
	if !q.timing && (!q.ticking || q.sampleDue) {
		q.timing, q.sampleDue = true, false
		q.timedPSN, q.timedAt = s.lastPSN, time.Now()
	}
	q.transmitWR(s)
	// A post is progress — except the one that starts the clock (the
	// idle→busy edge): the first tick is that post's own RTO.
	q.progress = q.ticking
	if !q.ticking {
		q.timerArms++
		q.armTimer()
	}
	return nil
}

// transmitWR emits all packets of s. Caller holds q.mu.
func (q *QP) transmitWR(s *sendWR) {
	mtu := q.nic.cfg.MTU
	switch s.verb {
	case VerbCmpSwap, VerbFetchAdd:
		op := wire.OpFetchAdd
		if s.verb == VerbCmpSwap {
			op = wire.OpCompareSwap
		}
		q.nic.emitAtomic(q, op, s.firstPSN, &wire.AtomicETH{
			VA: s.remoteVA, RKey: s.rkey, SwapAdd: s.swapAdd, Compare: s.compare,
		})
	case VerbRead:
		reth := wire.RETH{VA: s.remoteVA, RKey: s.rkey, DMALen: uint32(len(s.local))}
		q.nic.emit(q, wire.OpReadRequest, s.firstPSN, &reth, nil, nil, true)
	case VerbWrite, VerbSend:
		n := len(s.local)
		npkts := int(s.lastPSN-s.firstPSN) + 1
		// Serialization copies the payload out of the local region; hold its
		// DMA lock so a concurrent remote write into the same MR (now only
		// per-QP-serialized, not NIC-serialized) cannot race the read.
		s.mr.lockDMA()
		defer s.mr.unlockDMA()
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
			if s.verb == VerbSend {
				switch op {
				case wire.OpWriteOnly:
					op = wire.OpSendOnly
				case wire.OpWriteFirst:
					op = wire.OpSendFirst
				case wire.OpWriteLast:
					op = wire.OpSendLast
				default:
					op = wire.OpSendMiddle
				}
			}
			var reth *wire.RETH
			if op == wire.OpWriteFirst || op == wire.OpWriteOnly {
				reth = &wire.RETH{VA: s.remoteVA, RKey: s.rkey, DMALen: uint32(n)}
			}
			last := i == npkts-1
			q.nic.emit(q, op, s.firstPSN+uint32(i), reth, nil, s.local[lo:hi], last)
		}
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
// until the next post; with progress since the previous tick it only clears
// the flag. Otherwise it implements Go-Back-N recovery: rewind to the oldest
// unacked request and replay every outstanding work request (§5.3:
// "Cowbird-P4 can detect a timeout and utilize a Go-Back-N approach by
// resetting the local head pointer and PSN and re-executing ... from that
// point" — the same strategy the software requester uses).
func (q *QP) onTick() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ticking = false
	if q.sq.Len() == 0 || q.errored {
		return
	}
	q.sampleDue = true // the next post may time a fresh PSN
	if q.progress {
		q.progress = false
		q.armTimer()
		return
	}
	q.retries++
	q.nic.rtoExpiries.Add(1)
	if q.retries > q.maxRetries() {
		q.failAllLocked(StatusRetryExceeded)
		return
	}
	q.replay()
	q.armTimer()
}

// replay retransmits every outstanding work request. Karn's rule: the RTT
// sample in flight is abandoned. Caller holds q.mu.
func (q *QP) replay() {
	q.timing = false
	q.nic.replays.Add(1)
	for i := 0; i < q.sq.Len(); i++ {
		q.transmitWR(q.sq.At(i))
	}
}

// failAllLocked flushes the send queue (which may be empty) with the given
// status and moves the QP to the error state. Caller holds q.mu.
func (q *QP) failAllLocked(st Status) {
	for q.sq.Len() > 0 {
		s := q.sq.Pop()
		q.sendCQ.push(CQE{WRID: s.id, QPN: q.qpn, Status: st, Verb: s.verb, Bytes: uint32(len(s.local))})
	}
	q.errored = true
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
		if q.wctxValid {
			if off := int64(psn) - int64(q.wctx.basePSN); off >= 0 {
				byteOff := off * int64(q.nic.cfg.MTU)
				if byteOff <= int64(len(q.wctx.buf)) {
					q.wctx.mr.lockDMA()
					copy(q.wctx.buf[byteOff:], p.Payload)
					q.wctx.mr.unlockDMA()
				}
			}
		}
		// A stale middle/last with no (or a mismatched) context is ignored;
		// Go-Back-N replays the whole message in order.
		if isNew {
			q.ePSN++
		}
		if isNew && (op == wire.OpWriteLast || op == wire.OpWriteOnly) {
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
		defer mr.unlockDMA()
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

	case op.IsAtomic():
		if !isNew {
			// Duplicate: replay the cached response; never re-execute.
			if orig, ok := q.atomicCache[psn]; ok {
				q.nic.emitAtomicAck(q, psn, orig)
			}
			return
		}
		mr, buf, err := q.nic.translateRemoteKey(p.AtomicETH.RKey, p.AtomicETH.VA, 8)
		if err != nil {
			q.nic.emitAETH(q, wire.SyndromeNAKAcc, psn)
			return
		}
		if !mr.admitsEpoch(p.BTH.PKey) {
			// Atomics mutate state, so they are fenced like writes.
			q.nic.emitAETH(q, wire.SyndromeNAKFenced, psn)
			return
		}
		mr.lockDMA()
		orig := binary.LittleEndian.Uint64(buf)
		switch {
		case op == wire.OpFetchAdd:
			binary.LittleEndian.PutUint64(buf, orig+p.AtomicETH.SwapAdd)
		case orig == p.AtomicETH.Compare:
			binary.LittleEndian.PutUint64(buf, p.AtomicETH.SwapAdd)
		}
		mr.unlockDMA()
		q.ePSN++
		q.msn++
		q.atomicCache[psn] = orig
		q.atomicOrder.Push(psn)
		if q.atomicOrder.Len() > 64 {
			delete(q.atomicCache, q.atomicOrder.Pop())
		}
		q.nic.emitAtomicAck(q, psn, orig)

	case op == wire.OpSendFirst, op == wire.OpSendOnly, op == wire.OpSendMiddle, op == wire.OpSendLast:
		if (op == wire.OpSendFirst || op == wire.OpSendOnly) && isNew {
			if q.recvQ.Len() == 0 {
				// Receiver not ready: NAK without consuming the PSN.
				q.nic.emitAETH(q, wire.SyndromeRNRNAK, q.ePSN)
				return
			}
			q.rctx = recvCtx{wr: q.recvQ.Pop(), basePSN: psn}
			q.rctxValid = true
		}
		if !q.rctxValid {
			// Duplicate of an already-delivered message: re-ACK so the
			// requester can retire it if the original ACK was lost.
			if p.BTH.AckReq {
				q.nic.emitAETH(q, wire.SyndromeACK, psn)
			}
			return
		}
		if off := int64(psn) - int64(q.rctx.basePSN); off >= 0 {
			byteOff := off * int64(q.nic.cfg.MTU)
			if byteOff <= int64(len(q.rctx.wr.buf)) {
				q.rctx.wr.mr.lockDMA()
				copy(q.rctx.wr.buf[byteOff:], p.Payload)
				q.rctx.wr.mr.unlockDMA()
				if end := int(byteOff) + len(p.Payload); end > q.rctx.bytes {
					q.rctx.bytes = end
				}
			}
		}
		if isNew {
			q.ePSN++
		}
		if isNew && (op == wire.OpSendLast || op == wire.OpSendOnly) {
			q.recvCQ.push(CQE{
				WRID: q.rctx.wr.id, QPN: q.qpn, Status: StatusOK,
				Verb: VerbRecv, Bytes: uint32(q.rctx.bytes),
			})
			q.rctx = recvCtx{}
			q.rctxValid = false
			q.msn++
		}
		if p.BTH.AckReq {
			q.nic.emitAETH(q, wire.SyndromeACK, psn)
		}
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
			// Receiver not ready; the retransmission timer will replay.
		case p.AETH.Syndrome == wire.SyndromeNAKFenced:
			// This QP's epoch has been superseded: the owner was deposed.
			// Terminal for everything outstanding — replaying would bounce
			// identically, and the owner must stop serving.
			q.failAllLocked(StatusFenced)
		case p.AETH.IsNAK():
			q.failAllLocked(StatusRemoteAccessError)
		}

	case op == wire.OpAtomicAcknowledge:
		psn := extend24(q.ackPSN, p.BTH.PSN)
		if s := q.responseTarget(psn); s != nil && s.verb != VerbRead {
			if !s.done {
				if !s.canceled {
					s.mr.lockDMA()
					binary.LittleEndian.PutUint64(s.local, p.AtomicAck)
					s.mr.unlockDMA()
				}
				s.done = true
				q.progress = true
			}
			if psn+1 > q.ackPSN {
				q.ackPSN = psn + 1
			}
		}
		q.completeAcked()

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

// responseTarget returns the outstanding READ or atomic that response PSN psn
// belongs to — or nil if there is none, or if an earlier READ or atomic of
// this QP is still incomplete. An RC responder executes and answers requests
// in PSN order, so a response that overtakes an earlier one means the earlier
// one was lost: hardware discards the later response and Go-Back-N replays
// both, in order. Accepting it instead would let the replayed earlier request
// observe remote memory *after* the later one did — a requester that reads a
// tail pointer and then the entries below it (the spot engine's fused probe)
// would apply a newer tail to an older snapshot. Caller holds q.mu.
func (q *QP) responseTarget(psn uint32) *sendWR {
	for i := 0; i < q.sq.Len(); i++ {
		s := q.sq.At(i)
		if s.verb != VerbRead && s.verb != VerbCmpSwap && s.verb != VerbFetchAdd {
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
		q.observeRTT(time.Since(q.timedAt))
	}
	progressed := false
	for q.sq.Len() > 0 {
		s := q.sq.Front()
		ready := false
		switch s.verb {
		case VerbWrite, VerbSend:
			ready = s.lastPSN < q.ackPSN
		case VerbRead, VerbCmpSwap, VerbFetchAdd:
			ready = s.done
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
	}
}
