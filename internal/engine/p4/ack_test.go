package p4

import (
	"runtime"
	"testing"
	"time"

	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// TestCumulativeAcks: the switch asks for one ACK per batch of data writes,
// and a host's ACK for PSN n completes every write waiting up to n. Three
// checks on one queue of the host simulator, on a clock the test moves:
//   - an ACK for PSN n completes exactly the waiting writes up to n, and
//     retires them in order;
//   - a lost write that asked for the batch's ACK is found by the timeout,
//     which drains and resyncs the instance;
//   - the resync's re-execution asks for an ACK on every write, and each ACK
//     completes its own request.
func TestCumulativeAcks(t *testing.T) {
	h := newHostSim(t)
	now := time.Now()
	h.eng.clock = func() time.Time { return now }
	h.entry = rings.Entry{Type: rings.OpRead, ReqAddr: 0x30_0000, RespAddr: 0x31_0000, Length: uint32(len(h.dataBuf))}
	in := h.eng.tbl.Load().instances[0]
	q := in.queues[0]
	var p wire.Packet
	asksAck := func(fr []byte) bool {
		if err := p.DecodeFromBytes(fr); err != nil || !p.BTH.OpCode.IsWrite() || p.BTH.DestQP != h.compQPN {
			t.Fatalf("not a response write to compute: %v", err)
		}
		return p.BTH.AckReq
	}
	completed := func() int64 { return h.eng.Stats().ReadsCompleted }
	const n = 4

	// One fetch of n reads, each answered by the pool: n response writes,
	// and only the last asks for an ACK.
	h.tail += n
	reads := h.step(h.respond(h.one(h.respond(h.one(h.eng.tick)))))
	if len(reads) != n {
		t.Fatalf("the fetch issued %d reads, want %d", len(reads), n)
	}
	var writes [][]byte
	for i, r := range reads {
		w := h.one(h.respond(r))
		if asksAck(w) != (i == n-1) {
			t.Fatalf("response write %d of %d: AckReq %v, want it on the last only", i, n, p.BTH.AckReq)
		}
		writes = append(writes, w)
	}
	// The host's ACK of the second write completes the first two, in order.
	if out := h.step(h.ackOf(writes[1])); len(out) != 0 || completed() != 2 || q.red.ReadProgress != 2 {
		t.Fatalf("an ACK of write 2 of %d: %d reads completed, read progress %d, %d frames emitted; want 2, 2 and none (two reads still in flight)",
			n, completed(), q.red.ReadProgress, len(out))
	}
	// Again: nothing is left below it to complete.
	if out := h.step(h.ackOf(writes[0])); len(out) != 0 || completed() != 2 {
		t.Fatalf("a stale ACK completed %d reads", completed()-2)
	}
	// The ACK the last write asked for completes the rest and publishes.
	out := h.step(h.respond(writes[n-1]))
	if completed() != n || len(out) != 1 {
		t.Fatalf("the batch's ACK: %d reads completed and %d frames emitted, want %d and the red write", completed(), len(out), n)
	}
	if err := p.DecodeFromBytes(out[0]); err != nil || p.RETH.VA != h.redVA || rings.DecodeRed(p.Payload).ReadProgress != n {
		t.Fatal("the batch's ACK did not publish its red block")
	}
	h.step(h.respond(out[0]))

	// A second batch whose last write, the one that asked for the ACK, is
	// lost: the host takes the others without a word, nothing follows the
	// loss on the QP, and no host NAKs.
	h.tail += n
	reads = h.step(h.respond(h.one(h.respond(h.one(h.eng.tick)))))
	for i, r := range reads {
		w := h.one(h.respond(r))
		if i < n-1 && h.respond(w) != nil {
			t.Fatalf("write %d of %d asked for an ACK", i, n)
		}
	}
	now = now.Add(time.Second)
	h.step(h.eng.tick) // its probe goes unanswered: the drain discards it
	if st := h.eng.Stats(); st.Recoveries != 1 || st.NAKs != 0 || in.state != stateDraining {
		t.Fatalf("a second after the loss: %d recoveries, %d NAKs, state %v; want one drain, from the timeout", st.Recoveries, st.NAKs, in.state)
	}
	now = now.Add(time.Second)
	h.step(h.eng.tick) // the drain ends: the resync starts
	for len(h.eng.ctlDone) == 0 {
		runtime.Gosched() // the host ePSN resets run on a goroutine of their own
	}

	// The resync re-executes the batch: every response write asks for an
	// ACK, and each ACK completes its own read.
	out = h.step(h.eng.tick)
	if len(out) != n+2 {
		t.Fatalf("the resync emitted %d frames, want %d pool reads, the red write and a probe", len(out), n)
	}
	for i, r := range out[:n] {
		w := h.one(h.respond(r))
		if !asksAck(w) {
			t.Fatalf("re-executed response write %d asks for no ACK", i)
		}
		h.step(h.respond(w))
		if want := int64(n + i + 1); completed() != want {
			t.Fatalf("the ACK of re-executed write %d left %d reads completed, want %d", i, completed(), want)
		}
	}
	if q.red.ReadProgress != 2*n || q.open != 0 {
		t.Fatalf("after the re-execution: read progress %d, %d in flight; want %d and none", q.red.ReadProgress, q.open, 2*n)
	}
}
