package spot

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// Replica scrub & read-repair (DESIGN.md §14).
//
// Mirrored Stage B writes keep replicas identical while the engine is
// healthy, but a zombie writer racing its own fencing, a replica that missed
// writes while partitioned, or plain bit rot can leave copies divergent —
// and nothing on the serve path would ever notice, because READs only touch
// the primary. The scrubber closes that gap: it walks every replicated
// region chunk by chunk, compares CRC-32C checksums across live replicas
// (the same Castagnoli machinery as the wire ICRC), and repairs divergent
// chunks from the fencing-current primary.
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
//	        the primary's just-staged bytes to the lagging replicas in the
//	        same round).
//	repair: confirmed-divergent chunks are re-verified and rewritten from
//	        the primary under one barrier for the whole finding set, so a
//	        repair can never interleave with a mirrored write and clobber a
//	        newer acked byte with an older primary snapshot.
type scrubFinding struct {
	key divKey
	reg core.RegionInfo
	off uint64 // region-relative chunk offset
	n   uint32 // chunk length
}

// scrubSettle is the delay between divergence re-checks in the detect
// phase, long enough for an in-flight mirrored write's slower copy to land.
const scrubSettle = 200 * time.Microsecond

// ScrubPass runs one synchronous scrub pass over every replicated instance
// and returns the first terminal error (engine fenced, preempted, stopped).
// Replica failures discovered mid-scrub are routed through the normal
// failure detector (replica marked dead, primary rotated) and end the pass
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

// scrubInstance runs the detect and repair phases for one instance.
// Composed (fleet-placed) instances are skipped: their regions live on
// distinct memnodes rather than as fleet-wide mirrors, so cross-replica
// checksum comparison would compare unrelated stripes.
func (e *Engine) scrubInstance(inst *instance) error {
	if inst.homes != nil || e.liveReplicas(inst) < 2 || len(inst.info.Regions) == 0 {
		return nil
	}
	c := inst.queues[0].conn
	chunk := uint64(e.scrubChunk)

	// Detect.
	var found []scrubFinding
	for _, reg := range inst.info.Regions {
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

// liveReplicas counts the instance's not-dead replicas.
func (e *Engine) liveReplicas(inst *instance) int {
	live := 0
	for _, r := range inst.replicas {
		if !r.dead.Load() {
			live++
		}
	}
	return live
}

// scrubFailure classifies a scrub I/O error: terminal demotion signals
// propagate, a replica failure is recorded (dead + primary rotation) and
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

// detectChunk compares the chunk's checksum across live replicas, each
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

// chunkSumsEqual reads the chunk from every live replica (sequentially,
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
	for ri, r := range inst.replicas {
		if r.dead.Load() {
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
// barrier and rewrites any still-divergent replica from the fencing-current
// primary. Returns how many replicas were repaired.
func (e *Engine) repairChunk(c conn, inst *instance, reg core.RegionInfo, off uint64, n uint32) (int, error) {
	pi := int(inst.primary.Load())
	if inst.replicas[pi].dead.Load() {
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
	for ri, r := range inst.replicas {
		if ri == pi || r.dead.Load() {
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
