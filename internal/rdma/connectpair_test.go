package rdma

import (
	"bytes"
	"testing"
	"time"

	"cowbird/internal/wire"
)

// TestConnectPair checks the in-process PSN exchange: both QPs come back
// connected to each other at the PSNs given, and a WRITE and a READ complete
// in each direction.
func TestConnectPair(t *testing.T) {
	f := NewFabric()
	t.Cleanup(f.Close)
	a := NewNIC(f, wire.MAC{2, 0, 0, 0, 0, 1}, wire.IPv4Addr{10, 0, 0, 1}, DefaultConfig())
	b := NewNIC(f, wire.MAC{2, 0, 0, 0, 0, 2}, wire.IPv4Addr{10, 0, 0, 2}, DefaultConfig())
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)

	const aPSN, bPSN = 0x123456, 0x654321
	aCQ := NewCQ()
	aQP, bQP := ConnectPair(a, aCQ, aPSN, b, bPSN)

	if aQP.FirstPSN() != aPSN || bQP.FirstPSN() != bPSN {
		t.Fatalf("request PSNs %#x/%#x, want %#x/%#x", aQP.FirstPSN(), bQP.FirstPSN(), aPSN, bPSN)
	}
	if aQP.ExpectedPSN() != bPSN || bQP.ExpectedPSN() != aPSN {
		t.Fatalf("expected PSNs %#x/%#x, want %#x/%#x", aQP.ExpectedPSN(), bQP.ExpectedPSN(), bPSN, aPSN)
	}
	if r := aQP.Remote(); r.QPN != bQP.QPN() || r.MAC != b.MAC() || r.IP != b.IP() {
		t.Fatalf("a's remote %+v is not b's QP", r)
	}
	if r := bQP.Remote(); r.QPN != aQP.QPN() || r.MAC != a.MAC() || r.IP != a.IP() {
		t.Fatalf("b's remote %+v is not a's QP", r)
	}
	if aQP.sendCQ != aCQ || bQP.sendCQ == aCQ {
		t.Fatal("completion queues: a must send-complete into the caller's CQ, b into a private one")
	}

	for _, dir := range []struct {
		name     string
		from, to *NIC
		qp       *QP
	}{{"a->b", a, b, aQP}, {"b->a", b, a, bQP}} {
		local, remote := make([]byte, 64), make([]byte, 64)
		for i := range local {
			local[i] = byte(i) ^ dir.name[0]
		}
		want := bytes.Clone(local)
		dir.from.RegisterMR(0x1000, local)
		mr := dir.to.RegisterMR(0x9000, remote)
		post := func(id uint64, verb Verb) {
			t.Helper()
			err := dir.qp.PostSend(WorkRequest{ID: id, Verb: verb, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: mr.RKey})
			if err != nil {
				t.Fatalf("%s %v: %v", dir.name, verb, err)
			}
			if c := waitCQE(t, dir.qp.sendCQ, 1, 5*time.Second)[0]; c.Status != StatusOK || c.WRID != id || c.Verb != verb {
				t.Fatalf("%s %v completion %+v", dir.name, verb, c)
			}
		}
		post(1, VerbWrite)
		clear(local)
		post(2, VerbRead)
		if !bytes.Equal(local, want) {
			t.Fatalf("%s: READ did not return what the WRITE stored", dir.name)
		}
	}
}
