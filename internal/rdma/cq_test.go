package rdma

import (
	"testing"
	"time"
)

// TestCQPollIntoDrainsInBatches: PollInto hands out at most len(dst)
// completions per call, oldest first, and leaves the rest queued.
func TestCQPollIntoDrainsInBatches(t *testing.T) {
	cq := NewCQ()
	for i := 0; i < 10; i++ {
		cq.push(CQE{WRID: uint64(i), Status: StatusOK})
	}
	var buf [4]CQE
	next := uint64(0)
	for _, want := range []int{4, 4, 2, 0} {
		n := cq.PollInto(buf[:])
		if n != want {
			t.Fatalf("PollInto = %d, want %d", n, want)
		}
		for _, c := range buf[:n] {
			if c.WRID != next {
				t.Fatalf("WR %d out of order, want %d", c.WRID, next)
			}
			next++
		}
	}
}

// TestFabricLatencyIsPipelined checks SetLatency's two properties: each
// frame chain pays the propagation latency (a sync op takes at least one
// RTT = 2x latency), and concurrent chains overlap their latencies instead
// of serializing behind one another.
func TestFabricLatencyIsPipelined(t *testing.T) {
	p := newPair(t, DefaultConfig())
	const lat = 5 * time.Millisecond
	p.fabric.SetLatency(lat)

	src := make([]byte, 64)
	dst := make([]byte, 1024)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, dst)

	// One write = request frame + ACK frame, each paying lat.
	start := time.Now()
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	waitCQE(t, p.cliCQ, 1, 10*time.Second)
	rtt := time.Since(start)
	if rtt < 2*lat {
		t.Fatalf("sync write RTT %v < 2x latency %v", rtt, 2*lat)
	}

	// Eight writes posted back to back: their frames pipeline, so the batch
	// must finish in far less than 8 serialized RTTs.
	start = time.Now()
	for i := 0; i < 8; i++ {
		if err := p.cliQP.PostSend(WorkRequest{ID: uint64(10 + i), Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000 + uint64(i)*64, RKey: remote.RKey}); err != nil {
			t.Fatal(err)
		}
	}
	waitCQE(t, p.cliCQ, 8, 10*time.Second)
	batch := time.Since(start)
	if batch >= 8*2*lat {
		t.Fatalf("8 pipelined writes took %v, not faster than 8 serialized RTTs (%v)", batch, 8*2*lat)
	}
}
