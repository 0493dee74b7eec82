package spot

import (
	"fmt"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

// AdoptInstance registers a compute/pool pair previously served by another
// (now presumed-dead) engine: the takeover path of internal/ha. Instead of
// starting from zeroed pointers as AddInstance does, it reconstructs the
// engine-side state by reading the durable red bookkeeping block back from
// the compute node — one RDMA read per queue. The engine is pure soft state
// (§4.2: all durable bookkeeping lives in compute-node memory), so that
// single read per queue recovers exactly where the dead engine stopped.
//
// Exactly-once replay. The red block (heads, per-type progress counters,
// heartbeat) is only ever updated in a single RDMA write, so the durable
// copy is always internally consistent — it is the same "cache the outcome,
// replay on duplicate" idiom internal/rdma uses for atomics, applied at the
// protocol level. Entries below the durable MetaHead have had their effects
// published and are never re-executed. Entries at or above it may have been
// partially executed by the dead engine, but their completions never
// landed; re-executing them is safe because
//
//   - write payloads are still pinned in the request data ring (the client
//     frees that space only when the durable ReqDataHead advances), and
//     re-running a write stores the same bytes at the same pool address;
//   - re-running a read refetches into response-ring space the client has
//     not consumed (ReadProgress never advanced past it);
//   - replay walks the metadata ring in order from MetaHead, so per-type
//     ordering — and the read-after-write conflict splits derived from it —
//     is preserved across the failover boundary.
//
// The adoption reads run on the control goroutine, on the control shard,
// under the stop-the-world barrier (quiesceWorkers holds every worker's
// round lock), so adoption never interleaves with a serve round even on a
// running engine. A dedicated worker spawned by a concurrent registration
// after the barrier's snapshot serves an unrelated queue, so it cannot
// observe the instance being reconstructed here.
func (e *Engine) AdoptInstance(in *core.Instance, computeQP, memQP *rdma.QP) error {
	return e.AdoptInstanceReplicated(in, computeQP, []PoolReplica{{QP: memQP, Regions: in.Regions}})
}

// AdoptInstanceReplicated is AdoptInstance for an instance whose regions are
// backed by multiple pool replicas (see AddInstanceWired): the takeover
// engine gets its own QP to every replica and the same priority order the
// dead engine used, so mirroring and failover state carry across the
// takeover. Replica death is soft state and is re-detected by the new
// engine's first failed round or heartbeat against a dead pool.
func (e *Engine) AdoptInstanceReplicated(in *core.Instance, computeQP *rdma.QP, reps []PoolReplica) error {
	return e.register(registration{in: in, computeQP: computeQP, reps: reps, adopt: true})
}

// readRedBlocks reconstructs every queue's engine-side state from its
// durable red block. lastRed stays zero: the first heartbeat check writes
// immediately, announcing the takeover to the compute node's lease monitor.
// Runs on the control goroutine inside the quiesce barrier.
func (e *Engine) readRedBlocks(inst *instance) error {
	for _, q := range inst.queues {
		ar := arenaAlloc{s: e.ctl}
		redVA, redBuf, _ := ar.alloc(rings.RedSize)
		err := e.postAndWait(e.ctl, inst.shared.computeQP, rdma.WorkRequest{
			Verb: rdma.VerbRead, LocalVA: redVA, Length: rings.RedSize,
			RemoteVA: q.qi.BaseVA + uint64(q.qi.Layout.RedOffset()), RKey: q.qi.RKey,
		})
		if err != nil {
			return fmt.Errorf("spot: adopt instance %d queue %d: %w", inst.info.ID, q.qi.Index, err)
		}
		q.red = rings.DecodeRed(redBuf)
	}
	return nil
}
