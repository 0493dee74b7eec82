package spot

import (
	"fmt"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/telemetry"
)

// op is one metadata entry scheduled for execution, with its staging slot.
type op struct {
	entry    rings.Entry
	region   core.RegionInfo
	stageVA  uint64
	stageBuf []byte
}

// arenaAlloc is a per-round allocator over a shard's staging arena with two
// cursors: alloc bumps up from the front, allocBack down from the far end,
// and the arena is full when they meet. A round stages what it sends to the
// compute node (bookkeeping, read responses) at the front and write payloads
// at the back, so the responses of reads that had writes between them still
// sit back to back and leave in one RDMA write.
type arenaAlloc struct {
	s     *shard
	front int // bytes handed out from the start of the arena
	back  int // bytes handed out from its end
}

func (a *arenaAlloc) alloc(n int) (uint64, []byte, bool) {
	if a.front+n+a.back > len(a.s.arena) {
		return 0, nil, false
	}
	off := a.front
	a.front += n
	return a.s.arenaVA + uint64(off), a.s.arena[off : off+n], true
}

func (a *arenaAlloc) allocBack(n int) (uint64, []byte, bool) {
	if a.front+n+a.back > len(a.s.arena) {
		return 0, nil, false
	}
	a.back += n
	off := len(a.s.arena) - a.back
	return a.s.arenaVA + uint64(off), a.s.arena[off : off+n], true
}

// serveQueue runs one Probe/Execute/Complete round for a queue set on shard
// s, driving every RDMA message through the QPs of c and serving at most
// limit entries (the scheduler's cap: MaxEntriesPerRound, or less under
// deficit round-robin). It returns how many entries were served. All scratch
// state lives in the shard, so rounds on different shards run concurrently
// and the steady-state round allocates nothing.
//
// Any error abandons the round with WRs possibly still in flight; they must
// be canceled before this shard's next round, or a late response — a
// retransmission finally landing after a loss burst, a sibling WR of a
// failed batch — would DMA into arena bytes the next round has already
// handed out.
func (e *Engine) serveQueue(s *shard, c conn, inst *instance, q *queueState, limit int) (int, error) {
	served, err := e.serveRound(s, c, inst, q, limit)
	if err != nil {
		s.abandonPending()
	}
	return served, err
}

// serveRound is the round proper. A round that finds a conflict-free,
// read-only backlog on a queue whose previous probe found work blocks three
// times — probe with the metadata fetch behind it, pool reads, responses
// with the red write behind them — and one with writes four (serveBatch).
func (e *Engine) serveRound(s *shard, c conn, inst *instance, q *queueState, limit int) (int, error) {
	ar := arenaAlloc{s: s}
	lay := q.qi.Layout

	// Stage-timing sample decision for this round: 1-in-N per shard, so the
	// unsampled (common) round times nothing but its probe.
	sampled := e.tel.Sampled(s.rounds)
	s.rounds++

	limit = min(limit, lay.MetaEntries)
	greenVA, greenBuf, _ := ar.alloc(rings.GreenSize)
	metaVA, metaBuf, ok := ar.alloc(limit * rings.MetaEntrySize)
	if !ok {
		return 0, fmt.Errorf("spot: staging arena too small for %d entries", limit)
	}

	// Per-tenant QoS: reserve a round's worth of tokens before spending any
	// RDMA on the probe, so a tenant over its rate costs the engine nothing
	// this round. The unused part of the reservation is refunded once the
	// backlog is known; tokens spent on a round that later fails are not
	// refunded (the fabric work happened, the tenant pays for it).
	qos := inst.qos.Load()
	if qos != nil {
		if limit = qos.reserve(limit); limit == 0 {
			return 0, nil
		}
	}

	// Phase II (Probe): read the green bookkeeping half in one RDMA read. If
	// this queue's last probe found work, the metadata READ rides behind it
	// on the same QP and both complete in one wait: the responder executes
	// them in order and the requester accepts their responses in order, so
	// the entries are never older than the tail that bounds them. The fetch
	// is a guess — what the last probe found, capped by this round's limit
	// and the ring's wrap — and a queue whose last probe was empty sends the
	// lone 32-byte probe, so idle tenants cost what they always did. Every
	// probe is timed: its smoothed duration is what the worker's idle budget
	// is counted in (idleCap).
	have := min(q.lastFound, limit, lay.MetaEntries-int(q.red.MetaHead%uint64(lay.MetaEntries)))
	t0 := time.Now()
	_, err := e.post(s, c.computeQP, rdma.WorkRequest{
		Verb: rdma.VerbRead, LocalVA: greenVA, Length: rings.GreenSize,
		RemoteVA: q.qi.BaseVA + uint64(lay.GreenOffset()), RKey: q.qi.RKey,
	})
	s.stats.probes.Add(1)
	if err == nil {
		err = e.fetchMeta(s, c, q, metaVA, 0, have)
	}
	if err == nil {
		err = e.waitAll(s)
	}
	probe := time.Since(t0)
	if sampled {
		e.tel.StageProbe.Observe(probe)
	}
	if err != nil {
		return 0, err
	}
	s.probeTime += (probe - s.probeTime) / 8
	green := rings.DecodeGreen(greenBuf)
	count := min(int(green.MetaTail-q.red.MetaHead), limit)
	q.lastFound = count
	if count == 0 {
		if qos != nil {
			qos.refund(limit)
		}
		return 0, nil
	}

	// Fetch what the tail shows beyond the guess (head→tail, at most two RDMA
	// reads when the ring wraps). Entries the guess fetched beyond the tail
	// are never looked at: metadata slots are not zeroed, so a previous lap's
	// entry there would decode as valid.
	if have < count {
		if err := e.fetchMeta(s, c, q, metaVA, have, count); err != nil {
			return 0, err
		}
		if err := e.waitAll(s); err != nil {
			return 0, err
		}
	}
	var tStage time.Time // sampled rounds: when the stage now running began
	if sampled {
		tStage = time.Now()
		e.tel.StageFetch.Observe(tStage.Sub(t0))
	}

	// Decode and stage the entries: read responses from the front of the
	// arena, write payloads from its end. A torn entry (rw_type still zero)
	// ends the round early; the publish order guarantees every entry before
	// it is complete.
	s.ops = s.ops[:0]
	for i := 0; i < count; i++ {
		ent := rings.DecodeEntry(metaBuf[i*rings.MetaEntrySize:])
		if ent.Type == rings.OpInvalid {
			break
		}
		region, ok := inst.regions.Lookup(ent.RegionID)
		if !ok {
			return 0, fmt.Errorf("spot: entry references unknown region %d", ent.RegionID)
		}
		stage := ar.alloc
		if ent.Type == rings.OpWrite {
			stage = ar.allocBack
		}
		va, buf, ok := stage(int(ent.Length))
		if !ok {
			break // arena full; serve the remainder next round
		}
		s.ops = append(s.ops, op{entry: ent, region: region, stageVA: va, stageBuf: buf})
	}
	if qos != nil {
		qos.refund(limit - len(s.ops))
	}
	if len(s.ops) == 0 {
		return 0, nil
	}
	if e.tel != nil {
		e.tel.EngineRounds.Inc(s.id)
	}

	// Phase III (Execute): split into batches at range-overlap conflicts.
	// A read overlapping an earlier write is the §6 pause (read-after-write
	// correctness within the round). A write overlapping an earlier read is
	// split for replay safety: batches replay as a unit after a failure
	// (engine takeover or pool failover), and replaying a read is only
	// idempotent if no write in the same batch can land on its range during
	// an abandoned attempt. Batches are windows into s.ops, so splitting
	// costs no copy.
	//
	// Phase IV (Complete) runs per batch: the red block — heads, both
	// progress counters, the lease heartbeat — is published in one RDMA
	// write after each batch (one per round when nothing conflicts). That
	// makes the durable replay granularity the conflict-free batch: a round
	// abandoned mid-way never re-executes a batch whose effects were
	// published, and the batch in progress re-executes idempotently.
	start := 0
	for i := range s.ops {
		if conflicts(s.ops[start:i], s.ops[i]) {
			s.stats.stalls.Add(1)
			if err := e.serveBatch(s, c, inst, q, s.ops[start:i], &tStage); err != nil {
				return 0, err
			}
			start = i
		}
	}
	if err := e.serveBatch(s, c, inst, q, s.ops[start:], &tStage); err != nil {
		return 0, err
	}
	return len(s.ops), nil
}

// fetchMeta posts the READs that bring metadata entries [from, to) — counted
// from the queue's head — into the round's metadata staging at metaVA: one
// READ, or two when the range crosses the ring's wrap.
func (e *Engine) fetchMeta(s *shard, c conn, q *queueState, metaVA uint64, from, to int) error {
	lay := q.qi.Layout
	for from < to {
		slot := int((q.red.MetaHead + uint64(from)) % uint64(lay.MetaEntries))
		run := min(to-from, lay.MetaEntries-slot)
		_, err := e.post(s, c.computeQP, rdma.WorkRequest{
			Verb: rdma.VerbRead, LocalVA: metaVA + uint64(from*rings.MetaEntrySize),
			Length:   uint32(run * rings.MetaEntrySize),
			RemoteVA: q.qi.BaseVA + uint64(lay.MetaOffset(slot)), RKey: q.qi.RKey,
		})
		if err != nil {
			return err
		}
		from += run
	}
	return nil
}

// conflicts reports whether o's pool range overlaps an opposite-type
// operation already in the batch — the split condition of Phase III.
func conflicts(batch []op, o op) bool {
	if o.entry.Type == rings.OpRead {
		return overlapsWrite(batch, o)
	}
	return overlapsRead(batch, o)
}

// writeRed publishes next as q's red block — the packed engine half: head
// pointers, progress counters, heartbeat — in a single RDMA message, and
// commits it: next becomes the engine's own copy only when the write's
// completion says it landed. Until then q.red is untouched, so whatever
// fails — this write, or anything still pending on the shard that it is
// waited with — leaves the queue exactly where the durable block has it and
// the next round replays from there. Every call bumps the heartbeat, so any
// red write renews the engine's lease; the heartbeat path calls this on idle
// queues with next = q.red. The block is staged in the shard's own red slot,
// outside the arena: its retransmissions read the slot while the round's
// other staging is still in flight.
func (e *Engine) writeRed(s *shard, c conn, q *queueState, next rings.Red) error {
	next.Heartbeat++
	rings.EncodeRed(next, s.redBuf)
	err := e.postAndWait(s, c.computeQP, rdma.WorkRequest{
		Verb: rdma.VerbWrite, LocalVA: s.redVA, Length: rings.RedSize,
		RemoteVA: q.qi.BaseVA + uint64(q.qi.Layout.RedOffset()), RKey: q.qi.RKey,
	})
	if err != nil {
		return err
	}
	q.red = next
	q.lastRed = time.Now()
	s.stats.reds.Add(1)
	return nil
}

// overlapsWrite reports whether o (a read) targets pool bytes that a write
// already in the batch will modify.
func overlapsWrite(batch []op, o op) bool {
	rLo, rHi := o.entry.ReqAddr, o.entry.ReqAddr+uint64(o.entry.Length)
	for _, b := range batch {
		if b.entry.Type != rings.OpWrite || b.entry.RegionID != o.entry.RegionID {
			continue
		}
		wLo, wHi := b.entry.RespAddr, b.entry.RespAddr+uint64(b.entry.Length)
		if rLo < wHi && wLo < rHi {
			return true
		}
	}
	return false
}

// overlapsRead reports whether o (a write) targets pool bytes that a read
// already in the batch fetches — the replay-safety split.
func overlapsRead(batch []op, o op) bool {
	wLo, wHi := o.entry.RespAddr, o.entry.RespAddr+uint64(o.entry.Length)
	for _, b := range batch {
		if b.entry.Type != rings.OpRead || b.entry.RegionID != o.entry.RegionID {
			continue
		}
		rLo, rHi := b.entry.ReqAddr, b.entry.ReqAddr+uint64(b.entry.Length)
		if wLo < rHi && rLo < wHi {
			return true
		}
	}
	return false
}

// serveBatch performs Phases III and IV for one conflict-free batch:
//
//	stage A: memnode reads (for read requests) and compute-side payload
//	         fetches (for write requests), all in flight together;
//	stage B: memnode writes, issued in entry order (the RC QP executes
//	         them in order, preserving write-write ordering);
//	stage C: read responses pushed to the compute node, coalescing
//	         contiguous response-ring reservations up to BatchSize entries
//	         per RDMA write (§6 batching);
//	publish: the red write that makes the batch visible to the client.
//
// B and C are independent — the batch is conflict-free and both only read
// the staging A filled — so they fly together under one wait. A batch with
// no pool writes needs no wait between C and the red write either: both go
// out on the compute QP, whose responder NAKs any PSN gap, so the red block
// cannot land before the response bytes it announces. With pool writes the
// red write follows the one B∥C wait, because progress may only be published
// once every replica has acknowledged them.
//
// The batch commits when the red write completes (writeRed): every counter it
// advances is advanced on a copy of q.red. tStage, on a sampled round, is when
// the stage now running began; it is advanced as the stages are recorded.
func (e *Engine) serveBatch(s *shard, c conn, inst *instance, q *queueState, batch []op, tStage *time.Time) error {
	// Stage A. Pool READs go to the region's read replica — the primary for
	// a mirrored instance, the region's first live home for a composed
	// (fleet-placed) one — translated into its copy of the region
	// (per-replica bases and rkeys may differ); the QP reaching it is the
	// conn's pool QP of the same index.
	for _, o := range batch {
		switch o.entry.Type {
		case rings.OpRead:
			pi := inst.readReplica(o.entry.RegionID)
			prim := inst.replicas[pi]
			va, rkey, terr := prim.translate(o.region, o.entry.ReqAddr)
			if terr != nil {
				return terr
			}
			_, err := e.post(s, c.pools[pi], rdma.WorkRequest{
				Verb: rdma.VerbRead, LocalVA: o.stageVA, Length: o.entry.Length,
				RemoteVA: va, RKey: rkey,
			})
			if err != nil {
				return failedPost(c.pools[pi], err)
			}
		case rings.OpWrite:
			_, err := e.post(s, c.computeQP, rdma.WorkRequest{
				Verb: rdma.VerbRead, LocalVA: o.stageVA, Length: o.entry.Length,
				RemoteVA: o.entry.ReqAddr, RKey: q.qi.RKey,
			})
			if err != nil {
				return err
			}
		}
	}
	if err := e.waitAll(s); err != nil {
		return err
	}

	// Stage A′ (read-repair): a READ that straddles a chunk the scrubber has
	// marked divergent just staged the primary's bytes — push them to every
	// other live replica in the same round, so the read's answer becomes the
	// agreed answer without waiting for the scrubber's repair phase. The
	// writes ride the Stage B completion wait. Only the read's own range is
	// repaired (it may be a sliver of the chunk), so the divergence mark
	// stays until the scrubber repairs and clears the full chunk. Steady
	// state pays one atomic load for this stage. Composed instances skip it:
	// their regions are single-homed (or home-replicated), never mirrored
	// fleet-wide, so there is no cross-replica divergence to repair.
	if inst.homes == nil && inst.divCount.Load() > 0 {
		pi := int(inst.primary.Load())
		chunk := uint32(e.cfg.ScrubChunk)
		for _, o := range batch {
			if o.entry.Type != rings.OpRead {
				continue
			}
			if !inst.rangeDivergent(o.entry.RegionID, o.entry.ReqAddr-o.region.Base, uint64(o.entry.Length), chunk) {
				continue
			}
			for ri, r := range inst.replicas {
				if ri == pi || r.dead.Load() {
					continue
				}
				va, rkey, terr := r.translate(o.region, o.entry.ReqAddr)
				if terr != nil {
					return terr
				}
				_, err := e.post(s, c.pools[ri], rdma.WorkRequest{
					Verb: rdma.VerbWrite, LocalVA: o.stageVA, Length: o.entry.Length,
					RemoteVA: va, RKey: rkey,
				})
				if err != nil {
					return failedPost(c.pools[ri], err)
				}
			}
			e.readRepairs.Add(1)
		}
	}

	// Stage B: pool WRITEs go to every live write target of the entry's
	// region before the red write can publish progress. For a mirrored
	// instance that is every replica — any survivor holds every acked write
	// and a post-failover READ observes it. For a composed instance it is
	// the region's homes from the fleet directory, so writes fan out only
	// to the memnodes actually hosting the stripe. On an RC QP the per-node
	// stream stays in entry order, preserving write-write ordering on each
	// copy independently. next is the red block this batch will publish:
	// request-data ring space is reclaimed there, not in q.red, because an
	// abandoned attempt replays Stage A and freeing the same bytes twice
	// would overshoot the client's reservation cursor and wedge its
	// ring-full arithmetic for good. Client and engine run the same
	// reservation function, so the cursor advances identically on both sides.
	next := q.red
	nwrites := 0
	for _, o := range batch {
		if o.entry.Type != rings.OpWrite {
			continue
		}
		nwrites++
		_, next.ReqDataHead = rings.ReserveRing(next.ReqDataHead, o.entry.Length, q.qi.Layout.ReqDataBytes)
		mirrored := 0
		for _, ri := range inst.writeTargets(o.entry.RegionID) {
			r := inst.replicas[ri]
			if r.dead.Load() {
				continue
			}
			va, rkey, terr := r.translate(o.region, o.entry.RespAddr)
			if terr != nil {
				return terr
			}
			_, err := e.post(s, c.pools[ri], rdma.WorkRequest{
				Verb: rdma.VerbWrite, LocalVA: o.stageVA, Length: o.entry.Length,
				RemoteVA: va, RKey: rkey,
			})
			if err != nil {
				return failedPost(c.pools[ri], err)
			}
			if mirrored > 0 {
				e.replicaWrites.Add(1)
			}
			mirrored++
		}
		if mirrored == 0 {
			return fmt.Errorf("spot: no live pool replica for instance %d", inst.info.ID)
		}
	}
	// Anything on a pool QP by now — Stage B, or a read-repair — must be
	// acknowledged before progress is published.
	poolWrites := len(s.pending) > 0

	// Stage C: batch read responses over contiguous reservations. Reads are
	// staged back to back whatever sat between them in the ring, so a run
	// breaks only where the response ring itself wraps.
	nreads := 0
	s.run = s.run[:0]
	flushRun := func() error {
		if len(s.run) == 0 {
			return nil
		}
		total := uint32(0)
		for _, r := range s.run {
			total += r.entry.Length
		}
		_, err := e.post(s, c.computeQP, rdma.WorkRequest{
			Verb: rdma.VerbWrite, LocalVA: s.run[0].stageVA, Length: total,
			RemoteVA: s.run[0].entry.RespAddr, RKey: q.qi.RKey,
		})
		if err != nil {
			return err
		}
		s.stats.batches.Add(1)
		s.run = s.run[:0]
		return nil
	}
	for _, o := range batch {
		if o.entry.Type != rings.OpRead {
			continue
		}
		nreads++
		if len(s.run) > 0 {
			prev := s.run[len(s.run)-1]
			contiguous := prev.entry.RespAddr+uint64(prev.entry.Length) == o.entry.RespAddr &&
				prev.stageVA+uint64(prev.entry.Length) == o.stageVA
			if !contiguous || len(s.run) >= e.cfg.BatchSize {
				if err := flushRun(); err != nil {
					return err
				}
			}
		}
		s.run = append(s.run, o)
	}
	if err := flushRun(); err != nil {
		return err
	}
	if poolWrites {
		if err := e.waitAll(s); err != nil {
			return err
		}
	}

	// Phase IV. The activity counters move before the red write is posted: a
	// client sees its operations complete the instant the block lands, and
	// whoever it tells may read the counters next.
	next.MetaHead += uint64(len(batch))
	next.ReadProgress += uint64(nreads)
	next.WriteProgress += uint64(nwrites)
	s.stats.entries.Add(int64(len(batch)))
	s.stats.reads.Add(int64(nreads))
	s.stats.writes.Add(int64(nwrites))
	if !tStage.IsZero() {
		lap(tStage, e.tel.StageExecute)
	}
	if err := e.writeRed(s, c, q, next); err != nil {
		return err
	}
	if !tStage.IsZero() {
		lap(tStage, e.tel.StagePublish)
	}
	return nil
}

// lap records the stage that began at *t as ending now, and starts the next.
func lap(t *time.Time, stage *telemetry.Histogram) {
	now := time.Now()
	stage.Observe(now.Sub(*t))
	*t = now
}
