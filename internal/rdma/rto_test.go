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

// TestRTOEstimatorBackoff pins RFC 6298's arithmetic: RTO = SRTT + 4·RTTVAR
// raised to the floor, doubled per expiry up to MaxRTO, and the backoff
// cleared by progress and by a fresh sample (§5.7), which Base never
// includes.
func TestRTOEstimatorBackoff(t *testing.T) {
	const floor = 20 * time.Microsecond
	var e RTOEstimator
	if got := e.RTO(floor); got != InitialRTO {
		t.Fatalf("unmeasured RTO %v, want InitialRTO %v", got, InitialRTO)
	}
	e.Observe(10 * time.Microsecond) // SRTT 10 µs, RTTVAR 5 µs
	if got, want := e.RTO(floor), 30*time.Microsecond; got != want {
		t.Fatalf("RTO %v, want %v", got, want)
	}
	e.Expire()
	e.Expire()
	if got, want := e.RTO(floor), 120*time.Microsecond; got != want {
		t.Fatalf("RTO after two expiries %v, want %v", got, want)
	}
	for i := 0; i < 40; i++ {
		e.Expire()
	}
	if got := e.RTO(floor); got != MaxRTO {
		t.Fatalf("RTO after 42 expiries %v, want MaxRTO %v", got, MaxRTO)
	}
	if got, want := e.Base(floor), 30*time.Microsecond; got != want {
		t.Fatalf("Base %v, want %v: it includes the backoff", got, want)
	}
	e.Progress()
	if got, want := e.RTO(floor), 30*time.Microsecond; got != want {
		t.Fatalf("RTO after progress %v, want %v", got, want)
	}
	e.Expire()
	e.Observe(10 * time.Microsecond) // RTTVAR decays to 3.75 µs
	if got, want := e.RTO(floor), 25*time.Microsecond; got != want {
		t.Fatalf("RTO after a fresh sample %v, want %v: the sample left the backoff", got, want)
	}
	if got := e.RTO(time.Second); got != time.Second {
		t.Fatalf("RTO under a 1 s floor %v, want the floor", got)
	}
}

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
	// dropped; then give the fabric time to hand the survivor over.
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

// postAcked posts n 64 B writes on p's client QP one at a time, each waited
// for, and returns the server region they land in.
func postAcked(t *testing.T, p *pair, n int) *MR {
	t.Helper()
	p.cli.RegisterMR(0x1000, make([]byte, 64))
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	for i := 0; i < n; i++ {
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
	return srvMR
}

// TestRTOArmsOncePerBusyPeriod: a thousand posts, each acknowledged, inside
// one RTO touch the runtime timer once — on the idle→busy edge. No post, ACK
// or completion re-aims it. The fabric's latency keeps each post outstanding
// past its send.
func TestRTOArmsOncePerBusyPeriod(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = time.Minute // the whole test is one RTO
	p := newPair(t, cfg)
	p.fabric.SetLatency(time.Microsecond)
	postAcked(t, p, 1000)
	if n := p.cliQP.timerArmCount(); n > 1 {
		t.Fatalf("retransmission timer armed %d times for 1000 posts inside one RTO, want at most 1", n)
	}
}

// TestInlineRoundTripsArmNoTimer: on an inline fabric each post's round trip
// completes before PostSend returns, so nothing is ever outstanding once a
// post's frames are out and a thousand acknowledged posts arm the
// retransmission timer exactly zero times.
func TestInlineRoundTripsArmNoTimer(t *testing.T) {
	p := newPair(t, DefaultConfig())
	postAcked(t, p, 1000)
	if n := p.cliQP.timerArmCount(); n != 0 {
		t.Fatalf("retransmission timer armed %d times for 1000 inline round trips, want 0", n)
	}
}

// TestSilentPeerFailsWithinBudget: against a peer that has fallen silent, a
// post fails with RETRY_EXCEEDED no earlier than the sum of MaxRetries+1
// backed-off timeouts, RTO·(2⁰+2¹+…+2^MaxRetries) with each term capped at
// MaxRTO, and within one RTO more (DESIGN.md §9) — ticking instead of
// re-aiming the timer must not stretch failure detection. RTO is the QP's
// current value once one acknowledged post has measured the path and the
// busy period that post opened has lapsed: the 50 ms floor, whose one RTO of
// slack absorbs the four timers' lateness on a loaded host under -race (at a
// 10 ms floor they ran 13.6 ms over the sum).
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
	if lo := exhaustion(rto, cfg.MaxRetries); elapsed < lo || elapsed > lo+rto {
		t.Fatalf("dead peer detected after %v, want within [%v, %v] (RTO %v)", elapsed, lo, lo+rto, rto)
	}
}

// exhaustion is the detection contract's sum: the timeouts of MaxRetries+1
// consecutive expiries, each double the one before, capped at MaxRTO (or at
// rto, if higher).
func exhaustion(rto time.Duration, maxRetries int) time.Duration {
	var sum time.Duration
	for k := 0; k <= maxRetries; k++ {
		sum += min(rto<<k, max(MaxRTO, rto))
	}
	return sum
}

// TestMeasuredRTOAbsorbsLatency: a path whose round trip (10 ms of fabric
// latency) is thirty times the configured 300 µs floor carries a stream of
// posts without a single retry charged, because the QP's RTO comes from the
// round trips it measures. The first post, on an unmeasured path, backs off
// until the path answers and keeps that RTO until a round trip is timed; a
// fixed 300 µs RTO would fail it with RETRY_EXCEEDED after 11 expiries.
func TestMeasuredRTOAbsorbsLatency(t *testing.T) {
	const lat = 5 * time.Millisecond
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 300 * time.Microsecond
	p := newPair(t, cfg)
	p.fabric.SetLatency(lat)
	p.cli.RegisterMR(0x1000, make([]byte, 64))
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	post := func(i int) {
		err := p.cliQP.PostSend(WorkRequest{
			ID: uint64(i), Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	post(0)
	if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
		t.Fatalf("first write: %v", e.Status)
	}
	found := p.cli.Stats()
	if found.RTOExpiries == 0 {
		t.Fatalf("the first post found a 10 ms path without backing off: %+v", found)
	}
	const depth, posts = 4, 40
	for i := 1; i <= posts; i++ {
		if i > depth {
			if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
				t.Fatalf("write %d: %v", e.WRID, e.Status)
			}
		}
		post(i)
	}
	for _, e := range waitCQE(t, p.cliCQ, depth, 5*time.Second) {
		if e.Status != StatusOK {
			t.Fatalf("write %d: %v", e.WRID, e.Status)
		}
	}
	if st := p.cli.Stats(); st.RTOExpiries != found.RTOExpiries || st.Replays != found.Replays {
		t.Fatalf("retry path taken on a slow but healthy path: %+v after the first post, %+v at the end", found, st)
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

// TestQueuedAnswerIsNoExpiry: a retransmission tick that finds no progress
// while a frame of its connection waits due on the fabric's delay line must
// neither charge a retry nor replay: the exchange is slow, not silent, and a
// replay would only add frames behind the unread ones. The test stops the
// line's goroutine inside a frame for a second client QP, lets the first
// QP's WRITE queue behind it (and, once released, the server's ACK), and
// lets ten ticks pass. The stopping frame is put on the line directly: sent,
// it would be handled inline, on this goroutine, which holds the QP it is
// for.
func TestQueuedAnswerIsNoExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = time.Millisecond
	p := newPair(t, cfg)
	p.cli.RegisterMR(0x1000, make([]byte, 64))
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	other, srvOther := ConnectPair(p.cli, NewCQ(), 500, p.srv, 9000)
	wr := WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey}
	if err := p.cliQP.PostSend(wr); err != nil { // measure the path: the RTO is the floor
		t.Fatal(err)
	}
	if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
		t.Fatalf("warm-up write: %v", e.Status)
	}
	for deadline := time.Now().Add(5 * time.Second); p.cliQP.isTicking(); {
		if time.Now().After(deadline) {
			t.Fatal("retransmission timer never lapsed on an idle QP")
		}
		time.Sleep(100 * time.Microsecond)
	}

	release := other.hold()
	defer release()
	srvOther.mu.Lock()
	ack := p.srv.build(srvOther, wire.OpAcknowledge, 500, nil, &wire.AETH{Syndrome: wire.SyndromeACK}, nil, false)
	srvOther.mu.Unlock()
	p.fabric.line.push(ack, p.cli, true, 0)
	for deadline := time.Now().Add(5 * time.Second); !other.inDelivery(); {
		if time.Now().After(deadline) {
			t.Fatal("the delay line never took the held QP's frame")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if err := p.cliQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * cfg.RetransmitTimeout)
	st := p.cli.Stats()
	release()
	if st.RTOExpiries != 0 || st.Replays != 0 {
		t.Fatalf("ticks with the WRITE queued on the delay line charged the QP: %+v", st)
	}
	if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
		t.Fatalf("write: %v", e.Status)
	}
}

// TestInlineLossKeepsRTOAtFloor: an inline path samples each round trip as
// zero, without a clock read, so after a lost response it is still measured
// at its floor. Were it sampled only when work is left outstanding, the one
// sample it ever took would be the loss's own wait (Karn's rule keeps an
// unmeasured path's sample across the replay), and every later loss would
// cost that.
func TestInlineLossKeepsRTOAtFloor(t *testing.T) {
	p := newPair(t, DefaultConfig())
	srvMR := postAcked(t, p, 10)
	var dec wire.Packet
	lost := false
	p.fabric.SetLossFn(func(frame []byte) bool {
		if lost || dec.DecodeFromBytes(frame) != nil || dec.BTH.OpCode != wire.OpAcknowledge {
			return false
		}
		lost = true
		return true
	})
	err := p.cliQP.PostSend(WorkRequest{ID: 10, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey})
	if err != nil {
		t.Fatal(err)
	}
	if e := waitCQE(t, p.cliCQ, 1, 5*time.Second)[0]; e.Status != StatusOK {
		t.Fatalf("write after the lost ACK: %v", e.Status)
	}
	if st := p.cli.Stats(); st.Replays == 0 {
		t.Fatalf("the ACK was lost and nothing replayed: %+v", st)
	}
	if rto := p.cliQP.RTO(); rto != DefaultRTOFloor {
		t.Fatalf("RTO %v after one loss on an inline path, want the floor %v", rto, DefaultRTOFloor)
	}
}

// TestStalledSenderIsNoExpiry: a QP's frames leave on the goroutine that
// sends them, after its lock is released, so that goroutine can be held up
// while the retransmission timer ticks. A tick that finds the QP's own
// frames still on their way out must charge nothing: the QP is slow, not
// its peer silent. The loss predicate, which runs on the sender's goroutine,
// holds the second post's request for 20 RTOs; the first post is still
// outstanding, so the timer is ticking throughout.
func TestStalledSenderIsNoExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = time.Millisecond
	p := newPair(t, cfg)
	p.fabric.SetLatency(time.Microsecond) // every answer queues: the first post stays outstanding past its send
	p.cli.RegisterMR(0x1000, make([]byte, 64))
	srvMR := p.srv.RegisterMR(0x9000, make([]byte, 64))
	cliMAC := p.cli.MAC()
	requests := 0
	p.fabric.SetLossFn(func(frame []byte) bool {
		if wire.MAC(frame[6:12]) == cliMAC {
			if requests++; requests == 2 {
				time.Sleep(20 * cfg.RetransmitTimeout)
			}
		}
		return false
	})
	for i := uint64(1); i <= 2; i++ {
		err := p.cliQP.PostSend(WorkRequest{ID: i, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: srvMR.RKey})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range waitCQE(t, p.cliCQ, 2, 5*time.Second) {
		if e.Status != StatusOK {
			t.Fatalf("write %d: %v", e.WRID, e.Status)
		}
	}
	if st := p.cli.Stats(); st.RTOExpiries != 0 || st.Replays != 0 {
		t.Fatalf("ticks while the QP's own request was being sent charged it: %+v", st)
	}
}
