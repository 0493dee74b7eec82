package memnode

import (
	"bytes"
	"testing"
	"time"

	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

func newNode(t *testing.T) *Node {
	t.Helper()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	n := New(f, wire.MAC{2, 0xBB, 0, 0, 0, 1}, wire.IPv4Addr{10, 6, 0, 1}, rdma.DefaultConfig())
	t.Cleanup(n.Close)
	return n
}

func TestAllocRegion(t *testing.T) {
	n := newNode(t)
	r0, err := n.AllocRegion(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Size != 4096 || r0.RKey == 0 || r0.Base == 0 {
		t.Fatalf("region: %+v", r0)
	}
	r1, err := n.AllocRegion(1, 8192)
	if err != nil {
		t.Fatal(err)
	}
	// Regions must not overlap.
	if r1.Base < r0.Base+r0.Size {
		t.Fatalf("regions overlap: %+v %+v", r0, r1)
	}
	if _, err := n.AllocRegion(0, 100); err == nil {
		t.Fatal("duplicate region id accepted")
	}
	if got := n.Regions(); len(got) != 2 {
		t.Fatalf("Regions() = %d", len(got))
	}
}

func TestPeekPokeBounds(t *testing.T) {
	n := newNode(t)
	if _, err := n.AllocRegion(0, 128); err != nil {
		t.Fatal(err)
	}
	if err := n.Poke(0, 100, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := n.Peek(0, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("peek = %q", got)
	}
	if _, err := n.Peek(0, 125, 10); err == nil {
		t.Fatal("out-of-bounds peek accepted")
	}
	if err := n.Poke(0, 125, make([]byte, 10)); err == nil {
		t.Fatal("out-of-bounds poke accepted")
	}
	if _, err := n.Peek(9, 0, 1); err == nil {
		t.Fatal("unknown region peek accepted")
	}
	if err := n.Poke(9, 0, []byte{1}); err == nil {
		t.Fatal("unknown region poke accepted")
	}
}

// wired is a node plus a connected remote peer, for responder-path tests.
type wired struct {
	node *Node
	peer *rdma.NIC
	cq   *rdma.CQ
	pQP  *rdma.QP
}

// newWired builds a node with one region and a peer with a 256-byte local
// MR at 0x1000, connected by a QP pair.
func newWired(t *testing.T, cfg rdma.Config, regionSize int) (*wired, func() (*rdma.QP, *rdma.CQ)) {
	t.Helper()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	n := New(f, wire.MAC{2, 0xBB, 0, 0, 0, 2}, wire.IPv4Addr{10, 6, 0, 2}, cfg)
	t.Cleanup(n.Close)
	if _, err := n.AllocRegion(0, regionSize); err != nil {
		t.Fatal(err)
	}
	peer := rdma.NewNIC(f, wire.MAC{2, 0xBB, 0, 0, 0, 3}, wire.IPv4Addr{10, 6, 0, 3}, cfg)
	t.Cleanup(peer.Close)
	local := make([]byte, 256)
	peer.RegisterMR(0x1000, local)
	var psn uint32 = 100
	wire1 := func() (*rdma.QP, *rdma.CQ) {
		cq := rdma.NewCQ()
		pQP := peer.CreateQP(cq, rdma.NewCQ(), psn)
		nQP := n.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), psn+800)
		pQP.Connect(rdma.RemoteEndpoint{QPN: nQP.QPN(), MAC: n.NIC().MAC(), IP: n.NIC().IP()}, psn+800)
		nQP.Connect(rdma.RemoteEndpoint{QPN: pQP.QPN(), MAC: peer.MAC(), IP: peer.IP()}, psn)
		psn += 1000
		return pQP, cq
	}
	pQP, cq := wire1()
	return &wired{node: n, peer: peer, cq: cq, pQP: pQP}, wire1
}

// await polls cq for one completion.
func await(t *testing.T, cq *rdma.CQ) rdma.CQE {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cq.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for completion")
		}
		time.Sleep(100 * time.Microsecond)
	}
	var e [1]rdma.CQE
	cq.PollInto(e[:])
	return e[0]
}

// TestServesRemoteRDMA: the node is a plain RDMA responder — a remote peer
// can read and write its regions with one-sided verbs.
func TestServesRemoteRDMA(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	n := New(f, wire.MAC{2, 0xBB, 0, 0, 0, 2}, wire.IPv4Addr{10, 6, 0, 2}, rdma.DefaultConfig())
	t.Cleanup(n.Close)
	region, err := n.AllocRegion(0, 4096)
	if err != nil {
		t.Fatal(err)
	}

	peer := rdma.NewNIC(f, wire.MAC{2, 0xBB, 0, 0, 0, 3}, wire.IPv4Addr{10, 6, 0, 3}, rdma.DefaultConfig())
	t.Cleanup(peer.Close)
	local := make([]byte, 256)
	peer.RegisterMR(0x1000, local)
	cq := rdma.NewCQ()
	pQP := peer.CreateQP(cq, rdma.NewCQ(), 100)
	nQP := n.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), 900)
	pQP.Connect(rdma.RemoteEndpoint{QPN: nQP.QPN(), MAC: n.NIC().MAC(), IP: n.NIC().IP()}, 900)
	nQP.Connect(rdma.RemoteEndpoint{QPN: pQP.QPN(), MAC: peer.MAC(), IP: peer.IP()}, 100)

	copy(local, bytes.Repeat([]byte{0x42}, 256))
	if err := pQP.PostSend(rdma.WorkRequest{
		ID: 1, Verb: rdma.VerbWrite, LocalVA: 0x1000, Length: 256,
		RemoteVA: region.Base + 512, RKey: region.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cq.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var es [1]rdma.CQE
	if n := cq.PollInto(es[:]); n != 1 || es[0].Status != rdma.StatusOK {
		t.Fatalf("write completion: %d %+v", n, es[0])
	}
	got, err := n.Peek(0, 512, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, local) {
		t.Fatal("remote write not visible in region")
	}
}

// TestNAKPaths: malformed one-sided accesses — an unknown rkey, or a VA
// range outside the registered region — must complete with a remote-access
// error at the requester, not panic the node, not silently return zeroes,
// and not corrupt region memory. These are exactly the frames a mid-crash
// or misconfigured pool emits, so the NAK path is load-bearing for fault
// tolerance. Each case uses a fresh QP because a NAK moves the QP to the
// error state, as real RC QPs do.
func TestNAKPaths(t *testing.T) {
	w, wire1 := newWired(t, rdma.DefaultConfig(), 4096)
	region := w.node.Regions()[0]
	if err := w.node.Poke(0, 0, []byte{0xEE, 0xEE, 0xEE, 0xEE}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		wr   rdma.WorkRequest
	}{
		{"read bad rkey", rdma.WorkRequest{Verb: rdma.VerbRead, LocalVA: 0x1000, Length: 64, RemoteVA: region.Base, RKey: region.RKey + 0x9999}},
		{"write bad rkey", rdma.WorkRequest{Verb: rdma.VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: region.Base, RKey: region.RKey + 0x9999}},
		{"read OOB va", rdma.WorkRequest{Verb: rdma.VerbRead, LocalVA: 0x1000, Length: 64, RemoteVA: region.Base + region.Size - 8, RKey: region.RKey}},
		{"write OOB va", rdma.WorkRequest{Verb: rdma.VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: region.Base + region.Size - 8, RKey: region.RKey}},
		{"read below region", rdma.WorkRequest{Verb: rdma.VerbRead, LocalVA: 0x1000, Length: 64, RemoteVA: region.Base - 128, RKey: region.RKey}},
		{"write wild va", rdma.WorkRequest{Verb: rdma.VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0xDEAD_0000_0000, RKey: region.RKey}},
	}
	for i, tc := range cases {
		qp, cq := wire1()
		tc.wr.ID = uint64(i + 1)
		if err := qp.PostSend(tc.wr); err != nil {
			t.Fatalf("%s: post: %v", tc.name, err)
		}
		if e := await(t, cq); e.Status != rdma.StatusRemoteAccessError {
			t.Fatalf("%s: got %v, want REMOTE_ACCESS_ERROR", tc.name, e.Status)
		}
	}
	// Region memory is untouched by the rejected writes.
	got, err := w.node.Peek(0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xEE {
			t.Fatalf("region corrupted by NAKed write: % x", got)
		}
	}
}

// TestCrashRestart: a crashed node times out its peers' requests
// (retry exhaustion — the replica failure detector's signal); a restarted
// node comes back empty and serves traffic again once re-provisioned.
func TestCrashRestart(t *testing.T) {
	cfg := rdma.DefaultConfig()
	cfg.RetransmitTimeout = 300 * time.Microsecond
	cfg.MaxRetries = 3
	w, wire1 := newWired(t, cfg, 4096)
	region := w.node.Regions()[0]

	// Healthy first.
	if err := w.pQP.PostSend(rdma.WorkRequest{ID: 1, Verb: rdma.VerbRead, LocalVA: 0x1000, Length: 64, RemoteVA: region.Base, RKey: region.RKey}); err != nil {
		t.Fatal(err)
	}
	if e := await(t, w.cq); e.Status != rdma.StatusOK {
		t.Fatalf("healthy read: %v", e.Status)
	}

	w.node.Crash()
	if !w.node.Crashed() {
		t.Fatal("Crashed() should be true")
	}
	if err := w.pQP.PostSend(rdma.WorkRequest{ID: 2, Verb: rdma.VerbRead, LocalVA: 0x1000, Length: 64, RemoteVA: region.Base, RKey: region.RKey}); err != nil {
		t.Fatal(err)
	}
	if e := await(t, w.cq); e.Status != rdma.StatusRetryExceeded {
		t.Fatalf("read against crashed node: got %v, want RETRY_EXCEEDED", e.Status)
	}

	w.node.Restart()
	if w.node.Crashed() {
		t.Fatal("Crashed() should be false after Restart")
	}
	if got := w.node.Regions(); len(got) != 0 {
		t.Fatalf("restarted node should be empty, has %d regions", len(got))
	}
	// Re-provision: new region, new QP pair (old QPs died with the node).
	r2, err := w.node.AllocRegion(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.node.Poke(0, 0, []byte{0x7A}); err != nil {
		t.Fatal(err)
	}
	qp, cq := wire1()
	if err := qp.PostSend(rdma.WorkRequest{ID: 3, Verb: rdma.VerbRead, LocalVA: 0x1000, Length: 1, RemoteVA: r2.Base, RKey: r2.RKey}); err != nil {
		t.Fatal(err)
	}
	if e := await(t, cq); e.Status != rdma.StatusOK {
		t.Fatalf("read after restart: %v", e.Status)
	}
}
