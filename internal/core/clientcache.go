package core

import (
	"time"

	"cowbird/internal/cache"
	"cowbird/internal/rings"
)

// This file is the glue between the Table 2 API and the client-side
// hot-data tier (internal/cache): the cached AsyncRead path, the fill
// bookkeeping recorded at issue time, and the speculative reads the stride
// prefetcher advises. The cache package itself knows nothing about rings —
// everything that touches a queue set stays here.

// initPrefetch sizes the thread's speculative-read state from the tier
// config: one reusable line buffer per budget slot, so the prefetch path
// allocates nothing after setup.
func (t *Thread) initPrefetch(cfg cache.Config) {
	t.pf = cache.NewPrefetcher(cfg)
	if t.pf == nil {
		return
	}
	budget := cfg.PrefetchBudget
	t.pfBufs = make([][]byte, budget)
	for i := range t.pfBufs {
		t.pfBufs[i] = make([]byte, cfg.LineSize)
	}
	t.pfBusy = make([]bool, budget)
	t.pfRegion = make([]uint16, budget)
	t.pfOff = make([]uint64, budget)
}

// asyncReadCached is AsyncRead behind a non-nil cache: serve the read
// locally on a hit, otherwise issue it through the rings with fill
// bookkeeping, and in both cases let the stride detector advise speculative
// reads. Bounds were already checked by the caller.
//
// The hit path performs no allocation: a shard-mutex probe and a copy in
// the cache, integer arithmetic here. CI gates that with AllocsPerRun.
func (t *Thread) asyncReadCached(regionID uint16, src uint64, dest []byte, r RegionInfo) (ReqID, error) {
	cc := t.c.cache
	t0 := t.sampleIssueStart()
	if hit, _ := cc.Get(t.idx, regionID, src, dest); hit {
		if t.hitSeq >= MaxSeq {
			return 0, ErrSeqExhausted
		}
		t.hitSeq++
		if tel := t.c.tel; tel != nil {
			// A hit is issued and delivered in the same call: count both, so
			// issued-harvested still reads as requests in flight.
			tel.ReadsIssued.Inc(t.idx)
			tel.ReadsHarvested.Inc(t.idx)
			if !t0.IsZero() {
				tel.CacheHitLatency.Observe(time.Since(t0))
			}
		}
		t.prefetchAdvise(regionID, src, r)
		return MakeLocalHitID(t.idx, t.hitSeq), nil
	}
	if t.readSeq >= MaxSeq {
		return 0, ErrSeqExhausted
	}
	// Record the fill generation before the read is pushed: a write-through
	// landing between here and the harvest bumps it, and the stale fill is
	// then dropped instead of caching pre-write bytes. Reads issued while any
	// write is still in flight are not cacheable at all — the pool's reply
	// may predate that write (DESIGN.md §11).
	//
	// Order matters: the generation is recorded BEFORE the admissibility
	// check, mirroring the writer (WriteIssued before the gen bump). If the
	// check passes, every write not yet counted bumps the generation after
	// this point and the fill is dropped at harvest; checking admissibility
	// first would leave a window where a write issues, bumps the generation,
	// and then the (pre-bump-checked, post-bump-recorded) fill slips through.
	cacheable := cc.Cacheable(src, len(dest))
	var gen uint64
	if cacheable {
		gen = cc.FillGen(regionID, src)
		cacheable = cc.FillAdmissible()
	}
	respVA, err := t.qs.PushRead(r.Base+src, uint32(len(dest)), regionID)
	if err != nil {
		return 0, err
	}
	t.readSeq++
	t.pendingReads.Push(pendingRead{
		seq: t.readSeq, respVA: respVA, dest: dest,
		region: regionID, off: src, fillGen: gen, cacheable: cacheable,
	})
	if tel := t.c.tel; tel != nil {
		tel.ReadsIssued.Inc(t.idx)
		t.sampleIssued(rings.OpRead, t.readSeq, t0)
	}
	t.prefetchAdvise(regionID, src, r)
	return MakeReqID(rings.OpRead, t.idx, t.readSeq), nil
}

// prefetchAdvise feeds the stride detector one demand access and turns its
// advice into speculative line reads through the thread's own rings.
// Demand traffic always keeps priority: speculative reads are capped by the
// per-thread budget, issued only after the demand operation, and any ring
// backpressure abandons the round instead of retrying.
func (t *Thread) prefetchAdvise(regionID uint16, src uint64, r RegionInfo) {
	stride, depth := t.pf.Observe(regionID, src)
	if depth == 0 || stride == 0 {
		return
	}
	cc := t.c.cache
	if !cc.FillAdmissible() {
		return // in-flight write: speculative fills could resurrect pre-write bytes
	}
	lineSize := uint64(cc.Config().LineSize)
	for i := 1; i <= depth; i++ {
		if t.pfInFlight >= len(t.pfBufs) || t.readSeq >= MaxSeq {
			return
		}
		target := src + uint64(stride*int64(i))
		lineBase := target &^ (lineSize - 1)
		// Whole-line prefetch only, inside the region. Past either edge the
		// stream has nowhere further to go. Subtraction form: a negative
		// stride wrapping target below zero yields a huge lineBase, caught by
		// the first clause, and the second can no longer overflow — the naive
		// `lineBase+lineSize > Size` wraps to 0 for the topmost line of the
		// address space and would issue an out-of-region fabric read.
		if lineBase >= r.Size || r.Size-lineBase < lineSize {
			return
		}
		if cc.Contains(regionID, lineBase, int(lineSize)) || t.pfPending(regionID, lineBase) {
			continue
		}
		slot := t.pfFreeSlot()
		// Same gen-then-admissibility order as the demand path: a write that
		// slipped in since the loop-top check either bumps the generation
		// after this record (fill dropped at harvest) or is caught here.
		gen := cc.FillGen(regionID, lineBase)
		if !cc.FillAdmissible() {
			return
		}
		respVA, err := t.qs.PushRead(r.Base+lineBase, uint32(lineSize), regionID)
		if err != nil {
			return // rings full: demand traffic needs the space more
		}
		t.readSeq++
		t.pendingReads.Push(pendingRead{
			seq: t.readSeq, respVA: respVA, dest: t.pfBufs[slot],
			region: regionID, off: lineBase, fillGen: gen,
			cacheable: true, prefetch: true, pfSlot: int16(slot),
		})
		t.pfBusy[slot] = true
		t.pfRegion[slot] = regionID
		t.pfOff[slot] = lineBase
		t.pfInFlight++
		cc.NotePrefetchIssued(t.idx)
	}
}

// pfPending reports whether a speculative read for the line is already in
// flight (linear scan of the budget-sized slot table).
func (t *Thread) pfPending(regionID uint16, lineBase uint64) bool {
	for i, busy := range t.pfBusy {
		if busy && t.pfRegion[i] == regionID && t.pfOff[i] == lineBase {
			return true
		}
	}
	return false
}

// pfFreeSlot returns a free prefetch buffer index. The caller has already
// checked pfInFlight < len(pfBufs), so one exists.
func (t *Thread) pfFreeSlot() int {
	for i, busy := range t.pfBusy {
		if !busy {
			return i
		}
	}
	panic("cowbird: prefetch budget accounting out of sync")
}
