package rdma

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// Fencing-epoch enforcement on the responder (DESIGN.md §14): an MR's fence
// floor rejects WRITEs whose BTH epoch is below it, NAKing with
// SyndromeNAKFenced so the requester completes the WR with StatusFenced.
// READs are never fenced. A fencing NAK is terminal for the requester QP
// (the owner was deposed — it moves to the error state like any fatal NAK),
// so the current-epoch halves of these tests run on a fresh QP pair.

// secondQP wires one more client→server QP pair on p's NICs, with the given
// fencing epoch stamped on the client side.
func secondQP(t *testing.T, p *pair, epoch uint16) (*QP, *CQ) {
	t.Helper()
	cq := NewCQ()
	cliQP := p.cli.CreateQP(cq, NewCQ(), 300)
	srvQP := p.srv.CreateQP(NewCQ(), NewCQ(), 8000)
	cliQP.Connect(RemoteEndpoint{QPN: srvQP.QPN(), MAC: p.srv.MAC(), IP: p.srv.IP()}, 8000)
	srvQP.Connect(RemoteEndpoint{QPN: cliQP.QPN(), MAC: p.cli.MAC(), IP: p.cli.IP()}, 300)
	cliQP.SetFenceEpoch(epoch)
	return cliQP, cq
}

func TestFenceStaleWriteNAKed(t *testing.T) {
	p := newPair(t, DefaultConfig())
	src := []byte("fenced-off payload, must not land")
	dst := make([]byte, len(src))
	orig := make([]byte, len(dst))
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, dst)
	remote.SetFenceFloor(2)
	p.cliQP.SetFenceEpoch(1) // stale: below the floor

	err := p.cliQP.PostSend(WorkRequest{
		ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: uint32(len(src)),
		RemoteVA: 0x9000, RKey: remote.RKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusFenced {
		t.Fatalf("stale-epoch write completed %v, want FENCED", es[0].Status)
	}
	if !bytes.Equal(dst, orig) {
		t.Fatalf("fenced write landed bytes: %q", dst)
	}

	// The fenced QP is terminally errored; the epoch holder writes through
	// its own QP, and epochs at the floor are admitted.
	qp2, cq2 := secondQP(t, p, 2)
	if err := qp2.PostSend(WorkRequest{
		ID: 2, Verb: VerbWrite, LocalVA: 0x1000, Length: uint32(len(src)),
		RemoteVA: 0x9000, RKey: remote.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	es = waitCQE(t, cq2, 1, time.Second)
	if es[0].Status != StatusOK {
		t.Fatalf("current-epoch write completed %v, want OK", es[0].Status)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("current-epoch write did not land")
	}
}

func TestFenceSegmentedWriteDropsAllPackets(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	n := cfg.MTU*2 + 57 // First, Middle, Last
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, n)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, dst)
	remote.SetFenceFloor(7)

	if err := p.cliQP.PostSend(WorkRequest{
		ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: uint32(n),
		RemoteVA: 0x9000, RKey: remote.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusFenced {
		t.Fatalf("segmented stale write completed %v, want FENCED", es[0].Status)
	}
	quiesce(p)
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("fenced segmented write landed byte %d (0x%02x)", i, b)
		}
	}
}

func TestFenceReadsNeverFenced(t *testing.T) {
	p := newPair(t, DefaultConfig())
	remoteData := []byte("reads observe fenced state freely")
	local := make([]byte, len(remoteData))
	p.cli.RegisterMR(0x1000, local)
	remote := p.srv.RegisterMR(0x9000, remoteData)
	remote.SetFenceFloor(9)
	// Epoch 0 — maximally stale — must still read: a zombie that can observe
	// the new regime but not modify it is exactly the fencing contract.
	if err := p.cliQP.PostSend(WorkRequest{
		ID: 1, Verb: VerbRead, LocalVA: 0x1000, Length: uint32(len(remoteData)),
		RemoteVA: 0x9000, RKey: remote.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusOK {
		t.Fatalf("read against fenced MR completed %v, want OK", es[0].Status)
	}
	if !bytes.Equal(local, remoteData) {
		t.Fatal("read returned wrong bytes")
	}
}

func TestFenceFloorMonotone(t *testing.T) {
	p := newPair(t, DefaultConfig())
	remote := p.srv.RegisterMR(0x9000, make([]byte, 8))
	remote.SetFenceFloor(3)
	remote.SetFenceFloor(1) // lowering is ignored: epochs only advance
	if got := remote.FenceFloor(); got != 3 {
		t.Fatalf("floor lowered to %d, want 3", got)
	}
	remote.SetFenceFloor(5)
	if got := remote.FenceFloor(); got != 5 {
		t.Fatalf("floor %d after raise, want 5", got)
	}
}

func TestFenceFailsWholePipeline(t *testing.T) {
	// A fencing NAK fails every outstanding WR on the QP (like any Go-Back-N
	// NAK, the pipeline state past it is indeterminate) — the requester-side
	// contract the engine's demotion path relies on. The fabric's latency
	// keeps all three WRs outstanding when the NAK lands.
	p := newPair(t, DefaultConfig())
	p.fabric.SetLatency(time.Millisecond)
	src := make([]byte, 128)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, make([]byte, 128))
	remote.SetFenceFloor(4)

	for i := uint64(1); i <= 3; i++ {
		if err := p.cliQP.PostSend(WorkRequest{
			ID: i, Verb: VerbWrite, LocalVA: 0x1000, Length: 32,
			RemoteVA: 0x9000 + (i-1)*32, RKey: remote.RKey,
		}); err != nil {
			t.Fatal(err)
		}
	}
	es := waitCQE(t, p.cliCQ, 3, time.Second)
	for _, e := range es {
		if e.Status == StatusOK {
			t.Fatalf("WR %d completed OK past a fencing NAK", e.WRID)
		}
	}
}

// TestFencedPostSaysFenced: on an inline fabric the fencing NAK lands inside
// the first PostSend, so the QP is in the error state before the second
// post. That post is refused, and its error must still say StatusFenced —
// a bare "QP in error state" reads as a dead peer to the engine, which would
// then retire a live replica instead of demoting itself.
func TestFencedPostSaysFenced(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.cli.RegisterMR(0x1000, make([]byte, 128))
	remote := p.srv.RegisterMR(0x9000, make([]byte, 128))
	remote.SetFenceFloor(4)
	wr := WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 32, RemoteVA: 0x9000, RKey: remote.RKey}
	if err := p.cliQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	var cqe [1]CQE
	if n := p.cliCQ.PollInto(cqe[:]); n != 1 || cqe[0].Status != StatusFenced {
		t.Fatalf("after the first post: %d completions (%+v), want its FENCED one, delivered inline", n, cqe[0])
	}
	wr.ID = 2
	err := p.cliQP.PostSend(wr)
	var qe *QPError
	if !errors.Is(err, ErrQPError) || !errors.As(err, &qe) || qe.Status != StatusFenced {
		t.Fatalf("second post: %v, want a QPError with status FENCED", err)
	}
}
