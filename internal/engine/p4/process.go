package p4

import (
	"time"

	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// psnMask is the 24-bit wire PSN mask.
const psnMask = 0x00ffffff

// key maps a full-width PSN to its pending-table key.
func key(psn uint32) uint32 { return psn & psnMask }

// Process implements rdma.Interposer: the switch data plane. Frames not
// addressed to the switch pass through unchanged; frames for the switch's
// emulated QPs are consumed and usually recycled into new frames.
//
// Process takes no locks and, at steady state, performs no allocations:
// sender resolution is one atomic snapshot load plus an indexed lookup in
// the dense routing array, output frames come from the fabric's frame pool
// (which the consumed input frames go back to — see ReleasesFrames), and the
// returned slice is reused across calls — safe because the fabric consumes
// it under the forwarding lock, before the next Process call.
func (e *Engine) Process(frame []byte) [][]byte {
	if len(frame) < wire.EthernetLen {
		return nil
	}
	var dst wire.MAC
	copy(dst[:], frame[0:6])
	if dst != e.mac {
		// Pass-through is the fabric's hottest path: one atomic counter
		// bump and the frame goes back out via the reused slice.
		e.stats.packetsForwarded.Add(1)
		e.out = append(e.out[:0], frame)
		return e.out
	}
	e.out = e.out[:0]
	if uint16(frame[12])<<8|uint16(frame[13]) == etherTypeTick {
		// Generator tick: advance the engine clock (the data plane's only
		// other clock read is a probe response's arrival), resume finished
		// resyncs, emit the next probe and drive the timeout check, all
		// within the pipeline's serialization point.
		e.now = e.clock()
		t := e.tbl.Load()
		for {
			select {
			case in := <-e.ctlDone:
				e.finishResync(in)
				continue
			default:
			}
			break
		}
		e.nextProbe(t)
		e.checkTimeouts(t)
		return e.result()
	}
	// The input frame's payload is copied into any output frames; the fabric
	// returns the consumed buffer to its pool.
	e.consume(frame)
	return e.result()
}

// result normalizes an empty reused output slice to nil, preserving the
// historical "consumed, nothing to say" contract without giving up slice
// reuse.
func (e *Engine) result() [][]byte {
	if len(e.out) == 0 {
		return nil
	}
	return e.out
}

// emit queues an output frame for return from the current Process call.
func (e *Engine) emit(frame []byte) {
	if frame != nil {
		e.out = append(e.out, frame)
	}
}

// consume handles one frame addressed to a switch-emulated QP.
func (e *Engine) consume(frame []byte) {
	if err := e.rx.DecodeFromBytes(frame); err != nil {
		return
	}
	t := e.tbl.Load()
	idx := e.rx.BTH.DestQP - switchQPNBase
	if idx >= uint32(len(t.route)) {
		return
	}
	role := t.route[idx]
	if role.in == nil {
		return
	}
	op := e.rx.BTH.OpCode
	switch {
	case op == wire.OpAcknowledge:
		e.handleAck(role.in, role.fromCompute, &e.rx)
	case op.IsReadResponse():
		e.handleReadResponse(role.in, role.fromCompute, &e.rx)
	}
}

// pendingFor returns the pending table for a direction.
func (in *inst) pendingFor(fromCompute bool) map[uint32]*pendingOp {
	if fromCompute {
		return in.pendingComp
	}
	return in.pendingPool
}

// handleReadResponse processes a read-response packet from either host and
// recycles it according to the pending operation it answers.
func (e *Engine) handleReadResponse(in *inst, fromCompute bool, p *wire.Packet) {
	pend := in.pendingFor(fromCompute)
	op, ok := pend[key(p.BTH.PSN)]
	if !ok {
		return // stale or duplicate response
	}
	delete(pend, key(p.BTH.PSN))
	op.received++
	switch op.kind {
	case opProbeResp:
		e.onProbeResponse(in, op, p)
	case opMetaResp:
		e.onMetadata(in, op, p)
	case opReadData:
		e.onReadData(in, op, p)
	case opWriteData:
		e.onWriteData(in, op, p)
	}
	if op.received >= op.npkts {
		// Every PSN of this exchange has arrived; the op is off both maps
		// and no handler retains it.
		e.putOp(op)
	}
}

// onProbeResponse ends Phase II for one queue: if the tail pointer
// advanced, the probe response is recycled into an RDMA read of the new
// request metadata (head→tail), §5.2 Figure 5.
func (e *Engine) onProbeResponse(in *inst, op *pendingOp, p *wire.Packet) {
	q := op.q
	q.probeOutstanding = false
	// The response's arrival time is the ingress timestamp a switch stamps
	// on every packet; a probe is never retransmitted, so the sample is
	// unambiguous (Karn's rule). A fresh sample clears the backoff.
	q.rto.Observe(chainRTTs * e.clock().Sub(q.probeAt))
	if len(p.Payload) < rings.GreenSize {
		return
	}
	green := rings.DecodeGreen(p.Payload)
	if green.MetaTail <= q.red.MetaHead || q.fetchOutstanding {
		// Nothing new, or nothing the queue can take yet: a fetch is still
		// out, which with inline delivery means it was lost, and a probe
		// that kept the generator hot would spin it until the timeout.
		e.miss()
		return
	}
	e.misses.Store(0) // work: the generator is hot
	count := int(green.MetaTail - q.red.MetaHead)
	// The fetch must fit one response packet (no reassembly state in the
	// pipeline) and must not wrap the metadata ring (one contiguous read).
	if maxFit := e.cfg.MTU / rings.MetaEntrySize; count > maxFit {
		count = maxFit
	}
	h0 := int(q.red.MetaHead % uint64(q.qi.Layout.MetaEntries))
	if h0+count > q.qi.Layout.MetaEntries {
		count = q.qi.Layout.MetaEntries - h0
	}
	q.fetchOutstanding = true
	psn := e.allocPSNs(&in.compPSN, 1)
	fop := e.getOp()
	*fop = pendingOp{kind: opMetaResp, q: q, firstPSN: psn, npkts: 1}
	in.pendingComp[key(psn)] = fop
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildRead(in, true, psn,
		q.qi.BaseVA+uint64(q.qi.Layout.MetaOffset(h0)), q.qi.RKey,
		uint32(count*rings.MetaEntrySize), dataTOS))
}

// onMetadata parses fetched request metadata and enters Phase III for each
// new request.
func (e *Engine) onMetadata(in *inst, op *pendingOp, p *wire.Packet) {
	q := op.q
	q.fetchOutstanding = false
	n := len(p.Payload) / rings.MetaEntrySize
	for i := 0; i < n; i++ {
		ent := rings.DecodeEntry(p.Payload[i*rings.MetaEntrySize:])
		if ent.Type == rings.OpInvalid {
			break // torn publication; the next probe retries from here
		}
		region, ok := in.regions.Lookup(ent.RegionID)
		if !ok {
			break
		}
		r := e.getReq()
		*r = request{entry: ent, region: region, q: q}
		if e.tel != nil {
			// 1-in-N lifecycle sampling: stamp the request at metadata
			// arrival so Phase IV can observe its switch service time.
			if e.tel.Sampled(e.sampleSeq.Add(1) - 1) {
				r.t0 = time.Now()
			}
		}
		if ent.Type == rings.OpWrite {
			q.writeSeq++
			r.seq = q.writeSeq
			q.writes.Push(r)
		} else {
			q.readSeq++
			r.seq = q.readSeq
			q.reads.Push(r)
		}
		q.red.MetaHead++
		e.stats.entriesFetched.Add(1)
		e.issueRequest(in, r)
	}
}

// issueRequest performs Phase III Step 1 for one request, honoring the
// pause-all-reads rule: while any write is between discovery and its Step
// 2b issue, newly probed reads are held (§5.3 — the switch cannot do the
// range queries Cowbird-Spot uses, so it pauses all reads).
func (e *Engine) issueRequest(in *inst, r *request) {
	if r.done || r.issued || r.held {
		return
	}
	if in.state != stateRunning {
		// Draining or resyncing: leave it in the backlog; the resync's
		// kick re-issues it with fresh PSNs.
		in.backlog++
		return
	}
	if r.entry.Type == rings.OpRead {
		if in.writesInFlight > 0 {
			r.held = true
			in.heldReads = append(in.heldReads, r)
			e.stats.readsPaused.Add(1)
			return
		}
		// Step 1a: fetch the requested data from the memory pool.
		npkts := e.npktsFor(r.entry.Length)
		psn := e.allocPSNs(&in.poolPSN, npkts)
		op := e.getOp()
		*op = pendingOp{kind: opReadData, q: r.q, req: r, firstPSN: psn, npkts: npkts, totalLen: r.entry.Length}
		for i := 0; i < npkts; i++ {
			in.pendingPool[key(psn+uint32(i))] = op
		}
		r.issued = true
		r.q.open++
		r.q.readsWaiting++
		e.emit(e.buildRead(in, false, psn, r.entry.ReqAddr, r.region.RKey, r.entry.Length, dataTOS))
		return
	}
	// Write: Step 1b — fetch the to-be-written data from the compute node.
	in.writesInFlight++
	r.q.writesWaiting++
	npkts := e.npktsFor(r.entry.Length)
	psn := e.allocPSNs(&in.compPSN, npkts)
	op := e.getOp()
	*op = pendingOp{kind: opWriteData, q: r.q, req: r, firstPSN: psn, npkts: npkts, totalLen: r.entry.Length}
	for i := 0; i < npkts; i++ {
		in.pendingComp[key(psn+uint32(i))] = op
	}
	r.issued = true
	r.q.open++
	e.emit(e.buildRead(in, true, psn, r.entry.ReqAddr, r.q.qi.RKey, r.entry.Length, dataTOS))
}

// onReadData is Phase III Step 2a: a read response from the memory pool is
// recycled — new header, unmodified payload — into an RDMA write of the
// result into the compute node's response ring. Segmented responses convert
// packet-for-packet (Read Response First/Middle/Last → Write
// First/Middle/Last). The last packet waits in ackComp for its ACK, and asks
// for one only when no other read of the queue still waits for its data
// (awaitAck).
func (e *Engine) onReadData(in *inst, op *pendingOp, p *wire.Packet) {
	r := op.req
	idx := int((p.BTH.PSN - op.firstPSN) & psnMask)
	if idx >= op.npkts {
		return
	}
	if idx == 0 {
		op.outFirstPSN = e.allocPSNs(&in.compPSN, op.npkts)
	}
	if op.outFirstPSN == 0 {
		return // first packet was lost; timeout recovery re-executes
	}
	outOp, ok := p.BTH.OpCode.WriteCounterpart()
	if !ok {
		return
	}
	outPSN := op.outFirstPSN + uint32(idx)
	ackReq := false
	if idx == op.npkts-1 {
		op.q.readsWaiting--
		ackReq = e.awaitAck(in, &in.ackComp, r, outPSN, op.q.readsWaiting == 0)
	}
	var reth wire.RETH
	hasRETH := outOp == wire.OpWriteFirst || outOp == wire.OpWriteOnly
	if hasRETH {
		reth = wire.RETH{VA: r.entry.RespAddr, RKey: op.q.qi.RKey, DMALen: op.totalLen}
	}
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildWrite(in, true, outOp, outPSN, reth, hasRETH, p.Payload, ackReq, dataTOS))
}

// onWriteData is Phase III Step 2b: the fetched to-be-written payload from
// the compute node is recycled into an RDMA write toward the memory pool.
// When the last packet is issued the write stops blocking reads ("Step 2b
// and subsequent operations are not explicitly synchronized as they will be
// serialized by the switch/RNIC"), and waits in ackPool for its ACK, asking
// for one only when no other write of the queue still waits for its
// payload (awaitAck).
func (e *Engine) onWriteData(in *inst, op *pendingOp, p *wire.Packet) {
	r := op.req
	idx := int((p.BTH.PSN - op.firstPSN) & psnMask)
	if idx >= op.npkts {
		return
	}
	if idx == 0 {
		op.outFirstPSN = e.allocPSNs(&in.poolPSN, op.npkts)
	}
	if op.outFirstPSN == 0 {
		return
	}
	outOp, ok := p.BTH.OpCode.WriteCounterpart()
	if !ok {
		return
	}
	outPSN := op.outFirstPSN + uint32(idx)
	last := idx == op.npkts-1
	ackReq := false
	if last {
		in.writesInFlight--
		op.q.writesWaiting--
		ackReq = e.awaitAck(in, &in.ackPool, r, outPSN, op.q.writesWaiting == 0)
	}
	var reth wire.RETH
	hasRETH := outOp == wire.OpWriteFirst || outOp == wire.OpWriteOnly
	if hasRETH {
		reth = wire.RETH{VA: r.entry.RespAddr, RKey: r.region.RKey, DMALen: op.totalLen}
	}
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildWrite(in, false, outOp, outPSN, reth, hasRETH, p.Payload, ackReq, dataTOS))
	if last {
		// The payload is fully fetched: held reads may proceed.
		e.releaseHeld(in)
	}
}

// awaitAck queues r's data write, whose last packet has PSN psn, on w to
// wait for its ACK, and reports whether that packet asks for one. It does
// when nothing else of its kind is on its way — idle: no other read of r's
// queue waits for its pool data, or no other write for its payload — so
// the last write of a batch asks and its ACK completes the batch (per queue,
// because an instance's queues have independent clients: a read lost on one
// must not hold back the others' completions until the drain); when it is
// the MTU/MetaEntrySize-th write no ACK asked for covers, the red rule's
// count (complete), so a queue kept busy by overlapping fetches still
// completes and publishes; and when the instance is re-executing a resync
// backlog, so one lost frame there costs one request, not the window.
func (e *Engine) awaitAck(in *inst, w *ackRing, r *request, psn uint32, idle bool) bool {
	ask := idle || w.uncovered+1 >= e.cfg.MTU/rings.MetaEntrySize || r.reexec || in.backlog > 0
	w.writes.Push(ackWait{psn: psn, req: r})
	if ask {
		w.uncovered = 0
	} else {
		w.uncovered++
	}
	return ask
}

// acked pops, in PSN order, every write on w up to and including PSN psn (a
// 24-bit wire PSN) and calls done for each. It returns how many it popped.
func (w *ackRing) acked(psn uint32, done func(r *request)) int {
	n := 0
	for w.writes.Len() > 0 && (psn-w.writes.Front().psn)&psnMask < 1<<23 {
		done(w.writes.Pop().req)
		n++
	}
	w.uncovered = min(w.uncovered, w.writes.Len())
	return n
}

// clear drops every waiting write (startResync).
func (w *ackRing) clear() {
	for w.writes.Len() > 0 {
		w.writes.Pop()
	}
	w.uncovered = 0
}

// releaseHeld re-issues reads held by the pause rule once no write is in
// its blocking window. The held list ping-pongs through a reusable scratch
// slice so re-held reads can re-enter the (emptied, capacity-retaining)
// held list without allocating.
func (e *Engine) releaseHeld(in *inst) {
	if in.writesInFlight > 0 || len(in.heldReads) == 0 {
		return
	}
	scratch := append(e.heldScratch[:0], in.heldReads...)
	in.heldReads = in.heldReads[:0]
	for _, r := range scratch {
		r.held = false
		e.issueRequest(in, r)
	}
	e.heldScratch = scratch[:0]
}

// handleAck processes ACK/NAK packets addressed to the switch. An ACK for
// PSN n from a host completes every data write to that host still waiting
// up to n (ackRing): RC delivers in PSN order, so the ACK of any later PSN —
// a red write's too — says they all landed.
func (e *Engine) handleAck(in *inst, fromCompute bool, p *wire.Packet) {
	if p.AETH.IsNAK() {
		// PSN desynchronization (§5.3): a packet toward this host was lost.
		// Enter drain-based recovery immediately rather than waiting for
		// the data-plane timeout.
		e.stats.naks.Add(1)
		if in.state == stateRunning {
			e.beginRecovery(in)
		}
		return
	}
	if p.AETH.Syndrome == wire.SyndromeRNRNAK {
		return
	}
	w := &in.ackPool
	if fromCompute {
		w = &in.ackComp
	}
	if w.acked(p.BTH.PSN, func(r *request) { e.completeRequest(in, r) }) > 0 {
		e.kick(in)
	}
}

// completeRequest is Phase IV for one request: a read's response data is in
// compute memory, or a write's payload is in the pool. It retires the
// queue's done prefix in order and counts the completion (complete).
func (e *Engine) completeRequest(in *inst, r *request) {
	q := r.q
	r.done = true
	e.observeService(r)
	if r.entry.Type == rings.OpWrite {
		e.stats.writesCompleted.Add(1)
		e.retireWrites(q) // may recycle r
	} else {
		e.stats.readsCompleted.Add(1)
		e.retireReads(q)
	}
	e.complete(in, q)
}

// complete marks the queue as progressed (the next tick stamps it), counts
// one completion in its Phase IV register, and follows it with the red
// write only if it leaves no request of the queue in flight, or is the
// MTU/MetaEntrySize-th completion since the last red write (so a queue that
// never drains still publishes). The red block carries absolute heads and
// counters, so the next red write subsumes every one skipped — one red
// write per drained batch, as spot publishes one per round. A deviation
// from the paper, which recycles every ACK (DESIGN.md §16).
func (e *Engine) complete(in *inst, q *queueState) {
	q.progressed = true
	q.rto.Progress()
	q.open--
	q.sinceRed++
	if q.open == 0 || q.sinceRed >= e.cfg.MTU/rings.MetaEntrySize {
		e.redWrite(in, q)
	}
}

// observeService records a sampled request's switch service time — metadata
// arrival (Phase III entry) to Phase IV completion — into the StageService
// histogram. Unsampled requests carry a zero t0 and cost one branch.
func (e *Engine) observeService(r *request) {
	if r == nil || r.t0.IsZero() || e.tel == nil {
		return
	}
	e.tel.StageService.Observe(time.Since(r.t0))
}

// retireReads advances the read progress counter over the done prefix —
// per-type linearizability means progress is always a prefix. Retired
// requests return to the free list: their pending ops were all consumed
// before done could be set, so nothing references them.
func (e *Engine) retireReads(q *queueState) {
	for q.reads.Len() > 0 && (*q.reads.Front()).done {
		r := q.reads.Pop()
		q.red.ReadProgress = r.seq
		e.putReq(r)
	}
}

// retireWrites is retireReads for writes; it also frees each retired
// write's request data. Retiring pops a write once, in ring order, so a
// recovery replay that re-emits its payload cannot free the bytes twice.
func (e *Engine) retireWrites(q *queueState) {
	for q.writes.Len() > 0 && (*q.writes.Front()).done {
		r := q.writes.Pop()
		q.red.WriteProgress = r.seq
		_, q.red.ReqDataHead = rings.ReserveRing(q.red.ReqDataHead, r.entry.Length, q.qi.Layout.ReqDataBytes)
		e.putReq(r)
	}
}

// redWrite emits the Phase IV bookkeeping update: one RDMA write covering
// the whole packed red block (head pointers, both progress counters, and
// the lease heartbeat), §5.2 Phase IV. It is not in ackComp: nothing waits
// on its ACK, which only completes the response writes before it, as any
// compute ACK does. A lost red write is NAKed by the compute node at the
// next probe on the same QP, and finishResync republishes the block.
func (e *Engine) redWrite(in *inst, q *queueState) {
	psn := e.allocPSNs(&in.compPSN, 1)
	q.sinceRed = 0
	q.red.Heartbeat++
	rings.EncodeRed(q.red, e.redBuf[:])
	e.stats.redWrites.Add(1)
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildWrite(in, true, wire.OpWriteOnly, psn,
		wire.RETH{VA: q.qi.BaseVA + uint64(q.qi.Layout.RedOffset()), RKey: q.qi.RKey, DMALen: rings.RedSize},
		true, e.redBuf[:], true, dataTOS))
}

// --- frame construction ----------------------------------------------------

func (e *Engine) host(in *inst, toCompute bool) (Endpoint, uint32) {
	if toCompute {
		return in.compute, in.swCompQPN
	}
	return in.pool, in.swPoolQPN
}

// buildRead constructs an RDMA read request frame from the switch, using
// the engine's reusable encoder and a fabric-pool buffer.
func (e *Engine) buildRead(in *inst, toCompute bool, psn uint32, va uint64, rkey uint32, length uint32, tos uint8) []byte {
	host, swQPN := e.host(in, toCompute)
	p := &e.tx
	*p = wire.Packet{}
	p.Eth.Src = e.mac
	p.Eth.Dst = host.MAC
	p.IP.Src = e.ip
	p.IP.Dst = host.IP
	p.IP.TOS = tos
	p.UDP.SrcPort = uint16(0xC000 | swQPN&0x3FFF)
	p.BTH.OpCode = wire.OpReadRequest
	p.BTH.DestQP = host.QPN
	p.BTH.PSN = psn & psnMask
	p.BTH.AckReq = true
	p.RETH = wire.RETH{VA: va, RKey: rkey, DMALen: length}
	frame, err := p.SerializeInto(e.fabric.FrameBuf(wire.WireLen(wire.OpReadRequest, 0)))
	if err != nil {
		return nil
	}
	return frame
}

// buildWrite constructs an RDMA write packet from the switch.
func (e *Engine) buildWrite(in *inst, toCompute bool, op wire.OpCode, psn uint32, reth wire.RETH, hasRETH bool, payload []byte, ackReq bool, tos uint8) []byte {
	host, swQPN := e.host(in, toCompute)
	p := &e.tx
	*p = wire.Packet{}
	p.Eth.Src = e.mac
	p.Eth.Dst = host.MAC
	p.IP.Src = e.ip
	p.IP.Dst = host.IP
	p.IP.TOS = tos
	p.UDP.SrcPort = uint16(0xC000 | swQPN&0x3FFF)
	p.BTH.OpCode = op
	p.BTH.DestQP = host.QPN
	p.BTH.PSN = psn & psnMask
	p.BTH.AckReq = ackReq
	if hasRETH {
		p.RETH = reth
	}
	p.Payload = payload
	frame, err := p.SerializeInto(e.fabric.FrameBuf(wire.WireLen(op, len(payload))))
	if err != nil {
		return nil
	}
	return frame
}
