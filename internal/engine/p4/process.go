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
		// Generator tick: advance the engine clock — the one wall-clock read
		// of the data plane, ProbeInterval granularity against a timeout a
		// thousand times that — resume finished resyncs, drive the timeout
		// check, and emit the next probe, all within the pipeline's
		// serialization point.
		e.now = time.Now()
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
		e.checkTimeouts(t)
		e.nextProbe(t)
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
	if len(p.Payload) < rings.GreenSize {
		return
	}
	green := rings.DecodeGreen(p.Payload)
	if green.MetaTail <= q.red.MetaHead {
		e.miss()
		return
	}
	e.misses.Store(0) // work: the generator is hot
	if q.fetchOutstanding {
		return
	}
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
	*fop = pendingOp{created: e.now, kind: opMetaResp, q: q, firstPSN: psn, npkts: 1}
	in.pendingComp[key(psn)] = fop
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildRead(in, true, psn,
		q.qi.BaseVA+uint64(q.qi.Layout.MetaOffset(h0)), q.qi.RKey,
		uint32(count*rings.MetaEntrySize), e.cfg.DataTOS))
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
		*op = pendingOp{created: e.now, kind: opReadData, q: r.q, req: r, firstPSN: psn, npkts: npkts, totalLen: r.entry.Length}
		for i := 0; i < npkts; i++ {
			in.pendingPool[key(psn+uint32(i))] = op
		}
		r.issued = true
		r.q.open++
		e.emit(e.buildRead(in, false, psn, r.entry.ReqAddr, r.region.RKey, r.entry.Length, e.cfg.DataTOS))
		return
	}
	// Write: Step 1b — fetch the to-be-written data from the compute node.
	in.writesInFlight++
	npkts := e.npktsFor(r.entry.Length)
	psn := e.allocPSNs(&in.compPSN, npkts)
	op := e.getOp()
	*op = pendingOp{created: e.now, kind: opWriteData, q: r.q, req: r, firstPSN: psn, npkts: npkts, totalLen: r.entry.Length}
	for i := 0; i < npkts; i++ {
		in.pendingComp[key(psn+uint32(i))] = op
	}
	r.issued = true
	r.q.open++
	e.emit(e.buildRead(in, true, psn, r.entry.ReqAddr, r.q.qi.RKey, r.entry.Length, e.cfg.DataTOS))
}

// onReadData is Phase III Step 2a: a read response from the memory pool is
// recycled — new header, unmodified payload — into an RDMA write of the
// result into the compute node's response ring. Segmented responses convert
// packet-for-packet (Read Response First/Middle/Last → Write
// First/Middle/Last).
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
	last := idx == op.npkts-1
	if last {
		aop := e.getOp()
		*aop = pendingOp{created: e.now, kind: opRespAck, q: op.q, req: r, firstPSN: outPSN, npkts: 1}
		in.pendingComp[key(outPSN)] = aop
	}
	var reth wire.RETH
	hasRETH := outOp == wire.OpWriteFirst || outOp == wire.OpWriteOnly
	if hasRETH {
		reth = wire.RETH{VA: r.entry.RespAddr, RKey: op.q.qi.RKey, DMALen: op.totalLen}
	}
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildWrite(in, true, outOp, outPSN, reth, hasRETH, p.Payload, last, e.cfg.DataTOS))
}

// onWriteData is Phase III Step 2b: the fetched to-be-written payload from
// the compute node is recycled into an RDMA write toward the memory pool.
// When the last packet is issued the write stops blocking reads ("Step 2b
// and subsequent operations are not explicitly synchronized as they will be
// serialized by the switch/RNIC").
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
	var reth wire.RETH
	hasRETH := outOp == wire.OpWriteFirst || outOp == wire.OpWriteOnly
	if hasRETH {
		reth = wire.RETH{VA: r.entry.RespAddr, RKey: r.region.RKey, DMALen: op.totalLen}
	}
	if last {
		aop := e.getOp()
		*aop = pendingOp{created: e.now, kind: opWriteAck, q: op.q, req: r, firstPSN: outPSN, npkts: 1}
		in.pendingPool[key(outPSN)] = aop
	}
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildWrite(in, false, outOp, outPSN, reth, hasRETH, p.Payload, last, e.cfg.DataTOS))
	if last {
		// The payload is fully fetched: the client's request-data ring
		// space is reclaimable (client and switch run the same reservation
		// arithmetic), and held reads may proceed.
		_, op.q.red.ReqDataHead = rings.ReserveRing(op.q.red.ReqDataHead, r.entry.Length, op.q.qi.Layout.ReqDataBytes)
		in.writesInFlight--
		e.releaseHeld(in)
	}
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

// handleAck processes ACK/NAK packets addressed to the switch.
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
	pend := in.pendingFor(fromCompute)
	op, ok := pend[key(p.BTH.PSN)]
	if !ok {
		return
	}
	delete(pend, key(p.BTH.PSN))
	op.received++
	if op.kind == opRespAck || op.kind == opWriteAck {
		// Phase IV: a read's response data is in compute memory, or a
		// write's payload is in the pool. Retire in order and publish.
		op.req.done = true
		e.observeService(op.req)
		if op.kind == opRespAck {
			e.stats.readsCompleted.Add(1)
			e.retireReads(op.q)
		} else {
			e.stats.writesCompleted.Add(1)
			e.retireWrites(op.q)
		}
		e.complete(in, op.q)
		e.kick(in)
	}
	e.putOp(op)
}

// complete counts one completion in the queue's Phase IV register and
// recycles its ACK into the red write only if it leaves no request of the
// queue in flight, or is the MTU/MetaEntrySize-th completion since the last
// red write (so a queue that never drains still publishes). Any other
// completion's ACK is consumed: the red block carries absolute heads and
// counters, so the next red write subsumes it — one red write per drained
// batch, as spot publishes one per round. A deviation from the paper, which
// recycles every ACK (DESIGN.md §16).
func (e *Engine) complete(in *inst, q *queueState) {
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

func (e *Engine) retireWrites(q *queueState) {
	for q.writes.Len() > 0 && (*q.writes.Front()).done {
		r := q.writes.Pop()
		q.red.WriteProgress = r.seq
		e.putReq(r)
	}
}

// redWrite emits the Phase IV bookkeeping update: one RDMA write covering
// the whole packed red block (head pointers, both progress counters, and
// the lease heartbeat), §5.2 Phase IV.
func (e *Engine) redWrite(in *inst, q *queueState) {
	psn := e.allocPSNs(&in.compPSN, 1)
	op := e.getOp()
	*op = pendingOp{created: e.now, kind: opRedAck, q: q, firstPSN: psn, npkts: 1}
	in.pendingComp[key(psn)] = op
	q.sinceRed = 0
	q.red.Heartbeat++
	rings.EncodeRed(q.red, e.redBuf[:])
	e.stats.redWrites.Add(1)
	e.stats.packetsRecycled.Add(1)
	e.emit(e.buildWrite(in, true, wire.OpWriteOnly, psn,
		wire.RETH{VA: q.qi.BaseVA + uint64(q.qi.Layout.RedOffset()), RKey: q.qi.RKey, DMALen: rings.RedSize},
		true, e.redBuf[:], true, e.cfg.DataTOS))
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
