package spot

import (
	"fmt"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

// op is one metadata entry scheduled for execution, with its staging slot.
type op struct {
	entry    rings.Entry
	region   core.RegionInfo
	stageVA  uint64
	stageBuf []byte
}

// arenaAlloc is a per-round bump allocator over a shard's staging arena.
type arenaAlloc struct {
	s   *shard
	off int
}

func (a *arenaAlloc) alloc(n int) (uint64, []byte, bool) {
	if a.off+n > len(a.s.arena) {
		return 0, nil, false
	}
	va := a.s.arenaVA + uint64(a.off)
	buf := a.s.arena[a.off : a.off+n]
	a.off += n
	return va, buf, true
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

func (e *Engine) serveRound(s *shard, c conn, inst *instance, q *queueState, limit int) (int, error) {
	ar := arenaAlloc{s: s}
	lay := q.qi.Layout

	// Stage-timing sample decision for this round: 1-in-N per shard, so the
	// unsampled (common) round times nothing but its probe.
	sampled := e.tel.Sampled(s.rounds)
	s.rounds++

	// Per-tenant QoS: reserve a round's worth of tokens before spending any
	// RDMA on the probe, so a tenant over its rate costs the engine nothing
	// this round. The unused part of the reservation is refunded once the
	// backlog is known; tokens spent on a round that later fails are not
	// refunded (the fabric work happened, the tenant pays for it).
	var quota int
	qos := inst.qos.Load()
	if qos != nil {
		quota = qos.reserve(limit)
		if quota == 0 {
			return 0, nil
		}
	}
	// Phase II (Probe): read the green bookkeeping half in one RDMA read.
	// Every probe is timed: its smoothed duration is what the worker's idle
	// budget is counted in (idleCap).
	greenVA, greenBuf, _ := ar.alloc(rings.GreenSize)
	t0 := time.Now()
	err := e.postAndWait(s, c.computeQP, rdma.WorkRequest{
		Verb: rdma.VerbRead, LocalVA: greenVA, Length: rings.GreenSize,
		RemoteVA: q.qi.BaseVA + uint64(lay.GreenOffset()), RKey: q.qi.RKey,
	})
	s.stats.probes.Add(1)
	probe := time.Since(t0)
	if sampled {
		e.tel.StageProbe.Observe(probe)
	}
	if err != nil {
		return 0, err
	}
	s.probeTime += (probe - s.probeTime) / 8
	green := rings.DecodeGreen(greenBuf)
	if green.MetaTail == q.red.MetaHead {
		if qos != nil {
			qos.refund(quota)
		}
		return 0, nil
	}

	// Fetch the new metadata entries (head→tail), at most two RDMA reads
	// when the ring wraps.
	count := min(int(green.MetaTail-q.red.MetaHead), limit)
	if qos != nil {
		count = min(count, quota)
	}
	metaVA, metaBuf, ok := ar.alloc(count * rings.MetaEntrySize)
	if !ok {
		return 0, fmt.Errorf("spot: staging arena too small for %d entries", count)
	}
	h0 := int(q.red.MetaHead % uint64(lay.MetaEntries))
	run1 := count
	if h0+run1 > lay.MetaEntries {
		run1 = lay.MetaEntries - h0
	}
	if sampled {
		t0 = time.Now()
	}
	_, err = e.post(s, c.computeQP, rdma.WorkRequest{
		Verb: rdma.VerbRead, LocalVA: metaVA, Length: uint32(run1 * rings.MetaEntrySize),
		RemoteVA: q.qi.BaseVA + uint64(lay.MetaOffset(h0)), RKey: q.qi.RKey,
	})
	if err != nil {
		return 0, err
	}
	if run1 < count {
		_, err = e.post(s, c.computeQP, rdma.WorkRequest{
			Verb: rdma.VerbRead, LocalVA: metaVA + uint64(run1*rings.MetaEntrySize),
			Length:   uint32((count - run1) * rings.MetaEntrySize),
			RemoteVA: q.qi.BaseVA + uint64(lay.MetaOffset(0)), RKey: q.qi.RKey,
		})
		if err != nil {
			return 0, err
		}
	}
	if err := e.waitAll(s); err != nil {
		return 0, err
	}
	if sampled {
		e.tel.StageFetch.Observe(time.Since(t0))
	}

	// Decode and stage the entries. A torn entry (rw_type still zero) ends
	// the round early; the publish order guarantees every entry before it
	// is complete.
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
		va, buf, ok := ar.alloc(int(ent.Length))
		if !ok {
			break // arena full; serve the remainder next round
		}
		s.ops = append(s.ops, op{entry: ent, region: region, stageVA: va, stageBuf: buf})
	}
	if len(s.ops) == 0 {
		if qos != nil {
			qos.refund(quota)
		}
		return 0, nil
	}
	if qos != nil {
		qos.refund(quota - len(s.ops))
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
	flush := func(end int) error {
		if end == start {
			return nil
		}
		if sampled {
			t0 = time.Now()
		}
		if err := e.executeBatch(s, c, inst, q, s.ops[start:end]); err != nil {
			return err
		}
		if sampled {
			e.tel.StageExecute.Observe(time.Since(t0))
		}
		// Reclaim the batch's request-data ring space only now that the batch
		// can never re-execute: an abandoned attempt (pool failover mid-batch)
		// replays Stage A, and advancing the cursor there would free the same
		// bytes twice — overshooting the client's reservation cursor and
		// wedging its ring-full arithmetic permanently. Client and engine run
		// the same reservation function, so the cursor advances identically on
		// both sides.
		for _, o := range s.ops[start:end] {
			if o.entry.Type == rings.OpWrite {
				_, q.red.ReqDataHead = rings.ReserveRing(q.red.ReqDataHead, o.entry.Length, lay.ReqDataBytes)
			}
		}
		// The entries count as served once the local head advances: even if
		// the red write below fails, they have executed and are never
		// re-fetched (a later red write publishes the progress).
		q.red.MetaHead += uint64(end - start)
		s.stats.entries.Add(int64(end - start))
		start = end
		if sampled {
			t0 = time.Now()
		}
		if err := e.writeRed(s, c, q); err != nil {
			return err
		}
		if sampled {
			e.tel.StagePublish.Observe(time.Since(t0))
		}
		return nil
	}
	for i := range s.ops {
		if conflicts(s.ops[start:i], s.ops[i]) {
			s.stats.stalls.Add(1)
			if err := flush(i); err != nil {
				return 0, err
			}
		}
	}
	if err := flush(len(s.ops)); err != nil {
		return 0, err
	}
	return len(s.ops), nil
}

// conflicts reports whether o's pool range overlaps an opposite-type
// operation already in the batch — the split condition of Phase III.
func conflicts(batch []op, o op) bool {
	if o.entry.Type == rings.OpRead {
		return overlapsWrite(batch, o)
	}
	return overlapsRead(batch, o)
}

// writeRed performs one red-block bookkeeping write: the packed engine half
// — head pointers, progress counters, heartbeat — in a single RDMA message.
// Every call bumps the heartbeat, so any red write renews the engine's
// lease; the heartbeat paths call this directly on idle queues. The staging
// arena is free by the time a round reaches Phase IV, so a fresh bump
// allocator is safe here.
func (e *Engine) writeRed(s *shard, c conn, q *queueState) error {
	q.red.Heartbeat++
	ar := arenaAlloc{s: s}
	redVA, redBuf, _ := ar.alloc(rings.RedSize)
	rings.EncodeRed(q.red, redBuf)
	err := e.postAndWait(s, c.computeQP, rdma.WorkRequest{
		Verb: rdma.VerbWrite, LocalVA: redVA, Length: rings.RedSize,
		RemoteVA: q.qi.BaseVA + uint64(q.qi.Layout.RedOffset()), RKey: q.qi.RKey,
	})
	if err != nil {
		// The write may not have landed; do not treat the lease as renewed,
		// and roll the local counter back so a retry reuses the same value.
		q.red.Heartbeat--
		return err
	}
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

// executeBatch performs Phase III for one conflict-free batch:
//
//	stage A: memnode reads (for read requests) and compute-side payload
//	         fetches (for write requests), all in flight together;
//	stage B: memnode writes, issued in entry order (the RC QP executes
//	         them in order, preserving write-write ordering);
//	stage C: read responses pushed to the compute node, coalescing
//	         contiguous response-ring reservations up to BatchSize entries
//	         per RDMA write (§6 batching);
//	then the progress counters advance.
func (e *Engine) executeBatch(s *shard, c conn, inst *instance, q *queueState, batch []op) error {
	if len(batch) == 0 {
		return nil
	}

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
	// copy independently.
	nwrites := 0
	for _, o := range batch {
		if o.entry.Type != rings.OpWrite {
			continue
		}
		nwrites++
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
	if err := e.waitAll(s); err != nil {
		return err
	}

	// Stage C: batch read responses over contiguous reservations.
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
	if err := e.waitAll(s); err != nil {
		return err
	}

	q.red.ReadProgress += uint64(nreads)
	q.red.WriteProgress += uint64(nwrites)
	s.stats.reads.Add(int64(nreads))
	s.stats.writes.Add(int64(nwrites))
	return nil
}
