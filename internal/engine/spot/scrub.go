package spot

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// Replica scrub & read-repair (DESIGN.md §14).
//
// Stage B writes keep a region's homes identical while the engine is
// healthy, but a zombie writer racing its own fencing, a home that missed
// writes while partitioned, or plain bit rot can leave copies divergent —
// and nothing on the serve path would ever notice, because READs only touch
// the region's first live home. The scrubber closes that gap: it walks
// every region with at least two live homes chunk by chunk, compares
// CRC-32C checksums across those homes (the same Castagnoli machinery as
// the wire ICRC), and repairs divergent chunks from the first live home.
//
// A pass runs on the control goroutine and the control shard, over the QPs
// of the instance's first queue set, whose worker it holds off with the
// stop-the-world barrier (quiesceWorkers) whenever it drives them. Two
// phases, per instance:
//
//	detect: chunk checksums are read and compared one chunk at a time,
//	        each chunk's reads under a barrier of their own, so serving
//	        goes on between chunks. A mismatch can be a transient (a
//	        mirrored write of another engine, one copy landed and the other
//	        not), so it is re-checked after a settle delay — slept outside
//	        the barrier — before the chunk is marked divergent. Marked
//	        chunks are visible to the serve path immediately: a READ
//	        straddling one is served with read-repair (serveBatch pushes
//	        the first live home's just-staged bytes to the region's other
//	        live homes in the same round).
//	repair: confirmed-divergent chunks are re-verified and rewritten from
//	        the first live home under one barrier for the whole finding
//	        set, so a repair can never interleave with a mirrored write and
//	        clobber a newer acked byte with an older snapshot.
type scrubFinding struct {
	key divKey
	reg core.RegionInfo
	off uint64 // region-relative chunk offset
	n   uint32 // chunk length
}

// scrubSettle is the delay between divergence re-checks in the detect
// phase, long enough for an in-flight mirrored write's slower copy to land.
const scrubSettle = 200 * time.Microsecond

// ScrubPass runs one synchronous scrub pass over every instance and returns
// the first terminal error (engine fenced, preempted, stopped). Replica
// failures discovered mid-scrub are routed through the normal failure
// detector (markReplicaDead) and end the pass
// without error. Passes run on the control goroutine, so they are
// serialized with each other and with registration; tests and the
// split-brain sweep call this directly for a deterministic "scrub now".
func (e *Engine) ScrubPass() error {
	var err error
	e.runCtl(func() {
		for _, inst := range e.insts.Load().instances {
			if err = e.scrubInstance(inst); err != nil {
				return
			}
		}
		e.scrubPasses.Add(1)
	})
	return err
}

// scrubInstance runs the detect and repair phases for one instance, over
// the regions that have a copy to compare: two or more live homes.
func (e *Engine) scrubInstance(inst *instance) error {
	c := inst.queues[0].conn
	chunk := uint64(e.scrubChunk)

	// Detect.
	var found []scrubFinding
	for _, reg := range inst.info.Regions {
		h := inst.homes[reg.ID]
		if i := slices.IndexFunc(h, inst.live); i < 0 || !slices.ContainsFunc(h[i+1:], inst.live) {
			continue
		}
		for off := uint64(0); off < reg.Size; off += chunk {
			n := chunk
			if off+n > reg.Size {
				n = reg.Size - off
			}
			k := divKey{region: reg.ID, chunk: uint32(off / chunk)}
			diverged, err := e.detectChunk(c, inst, reg, off, uint32(n))
			if err != nil {
				return e.scrubFailure(inst, c, err)
			}
			e.scrubChunks.Add(1)
			if diverged {
				inst.markDivergent(k)
				e.scrubDivergent.Add(1)
				found = append(found, scrubFinding{key: k, reg: reg, off: off, n: uint32(n)})
			} else {
				inst.clearDivergent(k)
			}
		}
	}
	if len(found) == 0 {
		return nil
	}

	// Repair, under one stop-the-world barrier for the whole finding set.
	release := e.quiesceWorkers()
	defer release()
	for _, f := range found {
		repaired, err := e.repairChunk(c, inst, f.reg, f.off, f.n)
		if err != nil {
			return e.scrubFailure(inst, c, err)
		}
		e.scrubRepairs.Add(int64(repaired))
		inst.clearDivergent(f.key)
	}
	return nil
}

// scrubFailure classifies a scrub I/O error: terminal demotion signals
// propagate, a replica failure is recorded (markReplicaDead) and
// swallowed — the pass ends, the next one scrubs the survivors.
func (e *Engine) scrubFailure(inst *instance, c conn, err error) error {
	if isFencedFailure(err) {
		e.tripFenced()
		return core.ErrFenced
	}
	if errors.Is(err, ErrPreempted) || errors.Is(err, core.ErrFenced) || errors.Is(err, errTimeout) {
		return err
	}
	e.notePoolFailure(inst, c, err)
	return nil
}

// detectChunk compares the chunk's checksum across reg's live homes, each
// comparison under its own barrier, with a settle re-check outside it to
// filter in-flight mirror skew. It reports whether the chunk is persistently
// divergent.
func (e *Engine) detectChunk(c conn, inst *instance, reg core.RegionInfo, off uint64, n uint32) (bool, error) {
	const tries = 3
	for try := 0; ; try++ {
		release := e.quiesceWorkers()
		equal, err := e.chunkSumsEqual(c, inst, reg, off, n)
		release()
		if err != nil || equal {
			return false, err
		}
		if try == tries-1 {
			return true, nil
		}
		time.Sleep(scrubSettle)
	}
}

// chunkSumsEqual reads the chunk from every live home of reg (sequentially,
// into one reused arena buffer) and reports whether all CRC-32C checksums
// match.
func (e *Engine) chunkSumsEqual(c conn, inst *instance, reg core.RegionInfo, off uint64, n uint32) (bool, error) {
	ar := arenaAlloc{s: e.ctl}
	va, buf, ok := ar.alloc(int(n))
	if !ok {
		return false, fmt.Errorf("spot: scrub chunk %d exceeds staging arena", n)
	}
	var sum uint32
	first := true
	for _, ri := range inst.homes[reg.ID] {
		if !inst.live(ri) {
			continue
		}
		if err := e.readReplicaChunk(c, inst, ri, reg, off, va, n); err != nil {
			return false, err
		}
		cs := wire.Checksum(buf)
		if first {
			sum, first = cs, false
		} else if cs != sum {
			return false, nil
		}
	}
	return true, nil
}

// repairChunk re-verifies the chunk byte-for-byte under the caller's
// barrier and rewrites any still-divergent live home of reg from its first
// live home. Returns how many homes were repaired.
func (e *Engine) repairChunk(c conn, inst *instance, reg core.RegionInfo, off uint64, n uint32) (int, error) {
	pi := inst.readReplica(reg.ID)
	if !inst.live(pi) {
		return 0, nil // no authoritative copy; nothing safe to repair from
	}
	ar := arenaAlloc{s: e.ctl}
	primVA, primBuf, ok := ar.alloc(int(n))
	if !ok {
		return 0, fmt.Errorf("spot: scrub chunk %d exceeds staging arena", n)
	}
	susVA, susBuf, ok := ar.alloc(int(n))
	if !ok {
		return 0, fmt.Errorf("spot: scrub chunk %d exceeds staging arena", n)
	}
	if err := e.readReplicaChunk(c, inst, pi, reg, off, primVA, n); err != nil {
		return 0, err
	}
	repaired := 0
	for _, ri := range inst.homes[reg.ID] {
		if ri == pi || !inst.live(ri) {
			continue
		}
		if err := e.readReplicaChunk(c, inst, ri, reg, off, susVA, n); err != nil {
			return repaired, err
		}
		if bytes.Equal(primBuf, susBuf) {
			continue // the detect-phase divergence was transient after all
		}
		va, rkey, terr := inst.replicas[ri].translate(reg, reg.Base+off)
		if terr != nil {
			return repaired, terr
		}
		err := e.postAndWait(e.ctl, c.cq, c.pools[ri], rdma.WorkRequest{
			Verb: rdma.VerbWrite, LocalVA: primVA, Length: n, RemoteVA: va, RKey: rkey,
		})
		if err != nil {
			return repaired, failedPost(c.pools[ri], err)
		}
		repaired++
	}
	return repaired, nil
}

// readReplicaChunk READs [off, off+n) of reg from replica ri, through c,
// into the control shard's arena at localVA.
func (e *Engine) readReplicaChunk(c conn, inst *instance, ri int, reg core.RegionInfo, off uint64, localVA uint64, n uint32) error {
	va, rkey, err := inst.replicas[ri].translate(reg, reg.Base+off)
	if err != nil {
		return err
	}
	werr := e.postAndWait(e.ctl, c.cq, c.pools[ri], rdma.WorkRequest{
		Verb: rdma.VerbRead, LocalVA: localVA, Length: n, RemoteVA: va, RKey: rkey,
	})
	return failedPost(c.pools[ri], werr)
}
