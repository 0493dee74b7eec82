package rdma

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"cowbird/internal/wire"
)

// The retransmission timer's contract is counted, not timed, wherever it can
// be: arms per busy period, frames per post, the order completions are
// accepted in. The one wall-clock bound (a silent peer) is the contract
// itself.

// TestReadResponsesAcceptedInOrder: two READs in flight, the first one's
// response lost. The second response arrives intact — and must be discarded,
// as RC hardware would: its buffer stays untouched and nothing completes
// until Go-Back-N has replayed both, in order. A requester that reads a tail
// pointer and then the entries under it depends on exactly this.
func TestReadResponsesAcceptedInOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 150 * time.Millisecond // long enough to look around before the replay
	p := newPair(t, cfg)

	var dma sync.Mutex // the local MR's DMA lock: orders the test's reads against NIC writes
	local := make([]byte, 128)
	remote := append(bytes.Repeat([]byte{0xA1}, 64), bytes.Repeat([]byte{0xB2}, 64)...)
	p.cli.RegisterMRLocked(0x1000, local, &dma)
	srvMR := p.srv.RegisterMR(0x9000, remote)

	// Lose the first response to the first READ (PSN 100, the client QP's
	// first), once.
	var dec wire.Packet
	var lost bool
	p.fabric.SetLossFn(func(frame []byte) bool {
		if lost || dec.DecodeFromBytes(frame) != nil {
			return false
		}
		if dec.BTH.OpCode.IsReadResponse() && dec.BTH.PSN == 100 {
			lost = true
			return true
		}
		return false
	})
	for i := uint64(0); i < 2; i++ {
		if err := p.cliQP.PostSend(WorkRequest{
			ID: i + 1, Verb: VerbRead, LocalVA: 0x1000 + 64*i, Length: 64,
			RemoteVA: 0x9000 + 64*i, RKey: srvMR.RKey,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Two requests and the second response delivered, the first response
	// dropped; then give the client's inbox time to hand the survivor over.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if st := p.fabric.Stats(); st.Frames >= 3 && st.Dropped >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fabric never carried the exchange: %+v", p.fabric.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond)
	dma.Lock()
	untouched := bytes.Equal(local[64:], make([]byte, 64))
	dma.Unlock()
	if !untouched {
		t.Fatal("second READ's response was accepted while the first READ was incomplete")
	}
	if n := p.cliCQ.Len(); n != 0 {
		t.Fatalf("%d completions before the first READ's replay", n)
	}

	es := waitCQE(t, p.cliCQ, 2, 5*time.Second)
	for i, e := range es {
		if e.Status != StatusOK || e.WRID != uint64(i+1) {
			t.Fatalf("completion %d: %+v", i, e)
		}
	}
	dma.Lock()
	defer dma.Unlock()
	if !bytes.Equal(local, remote) {
		t.Fatal("replayed READs returned wrong data")
	}
}

// TestRTOArmsOncePerBusyPeriod: a thousand posts, each acknowledged, inside
// one RTO touch the runtime timer once — on the idle→busy edge. No post, ACK
// or completion re-aims it.
func TestRTOArmsOncePerBusyPeriod(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = time.Minute // the whole test is one RTO
	p := newPair(t, cfg)
	src := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	for i := 0; i < 1000; i++ {
		err := p.cliQP.PostSend(WorkRequest{
			ID: uint64(i), Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey,
		})
		if err != nil {
			t.Fatal(err)
		}
		if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
			t.Fatalf("write %d: %v", i, e.Status)
		}
	}
	if n := p.cliQP.timerArmCount(); n > 1 {
		t.Fatalf("retransmission timer armed %d times for 1000 posts inside one RTO, want at most 1", n)
	}
}

// TestSilentPeerFailsWithinBudget: against a peer that has fallen silent, a
// post fails with RETRY_EXCEEDED no earlier than MaxRetries+1 timeouts and
// within (MaxRetries+2)·RTO — ticking instead of re-aiming the timer must not
// stretch failure detection. RTO is the QP's current value once one
// acknowledged post has measured the path (an unmeasured path runs on
// maxRTO) and the busy period that post opened has lapsed.
func TestSilentPeerFailsWithinBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 50 * time.Millisecond
	cfg.MaxRetries = 3
	p := newPair(t, cfg)
	p.cli.RegisterMR(0x1000, make([]byte, 64))
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	wr := WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey}
	if err := p.cliQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
		t.Fatalf("warm-up write: %v", e.Status)
	}
	for deadline := time.Now().Add(5 * time.Second); p.cliQP.isTicking(); {
		if time.Now().After(deadline) {
			t.Fatal("retransmission timer never lapsed on an idle QP")
		}
		time.Sleep(time.Millisecond)
	}
	rto := p.cliQP.RTO()
	p.srv.SetDead(true)
	start := time.Now()
	if err := p.cliQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]
	elapsed := time.Since(start)
	if e.Status != StatusRetryExceeded {
		t.Fatalf("status = %v, want RETRY_EXCEEDED", e.Status)
	}
	if lo, hi := time.Duration(cfg.MaxRetries+1)*rto, time.Duration(cfg.MaxRetries+2)*rto; elapsed < lo || elapsed > hi {
		t.Fatalf("dead peer detected after %v, want within [%v, %v] (RTO %v)", elapsed, lo, hi, rto)
	}
}

// TestMeasuredRTOAbsorbsLatency: a path whose round trip (10 ms of fabric
// latency) is thirty times the configured 300 µs × 3 budget still carries a
// stream of posts without a single retry charged, because the QP's RTO comes
// from the round trips it measures. A fixed 300 µs RTO fails the first post
// with RETRY_EXCEEDED.
func TestMeasuredRTOAbsorbsLatency(t *testing.T) {
	const lat = 5 * time.Millisecond
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 300 * time.Microsecond
	cfg.MaxRetries = 3
	p := newPair(t, cfg)
	p.fabric.SetLatency(lat)
	p.cli.RegisterMR(0x1000, make([]byte, 64))
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	const depth, posts = 4, 40
	for i := 0; i < posts; i++ {
		if i >= depth {
			if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
				t.Fatalf("write %d: %v", e.WRID, e.Status)
			}
		}
		err := p.cliQP.PostSend(WorkRequest{
			ID: uint64(i), Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range waitCQE(t, p.cliCQ, depth, 5*time.Second) {
		if e.Status != StatusOK {
			t.Fatalf("write %d: %v", e.WRID, e.Status)
		}
	}
	if st := p.cli.Stats(); st.RTOExpiries != 0 || st.Replays != 0 {
		t.Fatalf("retry path taken on a slow but healthy path: %+v", st)
	}
	if rto := p.cliQP.RTO(); rto < 2*lat {
		t.Fatalf("RTO %v below the path's %v round trip", rto, 2*lat)
	}
}

// TestSteadyStreamNeverRetries: a healthy peer under continuous posts for ten
// RTOs — the send queue is never empty when the timer ticks — is never
// charged a retry: every tick finds progress. Counted on the wire: a replay
// would show as a frame beyond the one request and one ACK of each post.
func TestSteadyStreamNeverRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 20 * time.Millisecond
	p := newPair(t, cfg)
	src := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	post := func(id int) {
		err := p.cliQP.PostSend(WorkRequest{
			ID: uint64(id), Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	const depth = 4
	posted := 0
	for ; posted < depth; posted++ {
		post(posted)
	}
	for end := time.Now().Add(10 * cfg.RetransmitTimeout); time.Now().Before(end); posted++ {
		if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
			t.Fatalf("write failed: %v", e.Status)
		}
		post(posted)
	}
	waitCQE(t, p.cliCQ, depth, 5*time.Second)
	if n := p.cliQP.retryCount(); n != 0 {
		t.Fatalf("retries = %d on a healthy peer", n)
	}
	if st := p.fabric.Stats(); st.Frames != int64(2*posted) {
		t.Fatalf("%d frames for %d acknowledged posts, want %d: something was replayed", st.Frames, posted, 2*posted)
	}
}
