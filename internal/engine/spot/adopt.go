package spot

import (
	"fmt"

	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

// readRedBlocks is the adoption half of Register: for an instance previously
// served by another engine — presumed dead (the takeover path of
// internal/ha) or quiesced by RemoveInstance (the fleet's migration) — it
// reconstructs the engine-side state by reading the durable red bookkeeping
// block back from the compute node, one RDMA read per queue. The engine is
// pure soft state (§4.2: all durable bookkeeping lives in compute-node
// memory), so that single read per queue recovers exactly where the previous
// engine stopped. Replica death is soft state too and is re-detected by the
// first failed round or heartbeat against a dead pool.
//
// Exactly-once replay. The red block (heads, per-type progress counters,
// heartbeat) is only ever updated in a single RDMA write, so the durable
// copy is always internally consistent. Entries below the durable MetaHead
// have had their effects published and are never re-executed. Entries at or above it may have been
// partially executed by the previous engine, but their completions never
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
// lastRed stays zero: the first heartbeat check writes immediately,
// announcing the takeover to the compute node's lease monitor. Runs on the
// control goroutine, on the control shard, over each queue set's own compute
// QP, before the queue sets are placed: no worker can see them yet, so the
// reads need no barrier.
func (e *Engine) readRedBlocks(inst *instance) error {
	for _, q := range inst.queues {
		ar := arenaAlloc{s: e.ctl}
		redVA, redBuf, _ := ar.alloc(rings.RedSize)
		err := e.postAndWait(e.ctl, q.conn.cq, q.conn.computeQP, rdma.WorkRequest{
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
