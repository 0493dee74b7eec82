package rdma

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"cowbird/internal/wire"
)

// closedLoop posts n work requests on q, wr(i) the i-th, keeping at most
// window outstanding, and fails on the first completion that is not OK.
func closedLoop(q *QP, cq *CQ, n, window int, wr func(i int) WorkRequest) error {
	var cqes [16]CQE
	deadline := time.Now().Add(time.Minute)
	for posted, done := 0, 0; done < n; {
		for posted < n && posted-done < window {
			if err := q.PostSend(wr(posted)); err != nil {
				return fmt.Errorf("post %d: %w", posted, err)
			}
			posted++
		}
		k := cq.PollInto(cqes[:])
		for _, e := range cqes[:k] {
			if e.Status != StatusOK {
				return fmt.Errorf("WR %d: %v", e.WRID, e.Status)
			}
		}
		done += k
		if k == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("stalled at %d of %d completions", done, n)
			}
			runtime.Gosched()
		}
	}
	return nil
}

// runBounded runs each loop on its own goroutine and fails the test if any
// returns an error or if they have not all returned within limit — a
// deadlock on the inline path parks a poster inside PostSend for ever, so the
// dump of every goroutine's stack is what shows the lock cycle.
func runBounded(t *testing.T, limit time.Duration, loops ...func() error) {
	t.Helper()
	errs := make(chan error, len(loops))
	for _, loop := range loops {
		go func() { errs <- loop() }()
	}
	timeout := time.After(limit)
	for range loops {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			// Written at once: the stuck goroutines can hang the cleanups,
			// and with them the test's own log.
			buf := make([]byte, 1<<20)
			os.Stderr.Write(buf[:runtime.Stack(buf, true)])
			t.Fatalf("no progress within %v (deadlock?)", limit)
		}
	}
}

// lockedRegion registers a 64 KiB region at va on n under a DMA lock of its
// own, the shape of a memory pool's region or a compute node's queue set.
func lockedRegion(n *NIC, va uint64) *MR {
	return n.RegisterMRLocked(va, make([]byte, 64<<10), new(sync.Mutex))
}

// mixedWR alternates 8500 B writes (nine segments) with 64 B reads between
// two regions at va, so both WRITE serialization and READ responses run
// while other posters take the same regions' locks.
func mixedWR(va uint64, rkey uint32) func(i int) WorkRequest {
	return func(i int) WorkRequest {
		off := uint64(i%7) * 8500
		wr := WorkRequest{ID: uint64(i), LocalVA: va + off, RemoteVA: va + off, RKey: rkey, Verb: VerbRead, Length: 64}
		if i%2 == 0 {
			wr.Verb, wr.Length = VerbWrite, 8500
		}
		return wr
	}
}

// TestInlinePassiveResponder: with no interposer and no latency, every
// frame of a round trip is handled on the requester's goroutine — each
// request by the responder, each READ response and ACK by the requester —
// so Inline counts every frame on the fabric and none takes the delay line.
func TestInlinePassiveResponder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Second // no replay adds frames
	p := newPair(t, cfg)
	lockedRegion(p.cli, 0x10000)
	remote := lockedRegion(p.srv, 0x10000)
	const n = 1000
	if err := closedLoop(p.cliQP, p.cliCQ, n, 8, mixedWR(0x10000, remote.RKey)); err != nil {
		t.Fatal(err)
	}
	// A write is nine segments and one ACK, a read one request and one
	// response.
	frames := int64(n/2*(9+1) + n/2*2)
	if st := p.fabric.Stats(); st.Frames != frames || st.Inline != frames {
		t.Fatalf("Frames = %d, Inline = %d, want both %d (%+v)", st.Frames, st.Inline, frames, st)
	}
}

// TestResponseToPostingQPInline: a READ response is handled inline by the
// QP that posted the READ, so the completion is on the CQ when PostSend
// returns — and it stays so once the responder's QP posts too: no QP is
// ever marked off the inline path.
func TestResponseToPostingQPInline(t *testing.T) {
	p := newPair(t, DefaultConfig())
	local := lockedRegion(p.cli, 0x10000)
	remote := lockedRegion(p.srv, 0x10000)
	read := func(q *QP, cq *CQ, rkey uint32) {
		t.Helper()
		before := p.fabric.Stats().Inline
		if err := q.PostSend(WorkRequest{ID: 1, Verb: VerbRead, LocalVA: 0x10000, Length: 64, RemoteVA: 0x10000, RKey: rkey}); err != nil {
			t.Fatal(err)
		}
		var cqe [1]CQE
		if n := cq.PollInto(cqe[:]); n != 1 || cqe[0].Status != StatusOK {
			t.Fatalf("%d completions when PostSend returned (%+v), want the READ's", n, cqe[0])
		}
		if got := p.fabric.Stats().Inline - before; got != 2 {
			t.Fatalf("%d frames of the round trip went inline, want the request and the response", got)
		}
	}
	read(p.cliQP, p.cliCQ, remote.RKey)
	read(p.srvQP, p.srvCQ, local.RKey) // the server's QP posts as well now
	read(p.cliQP, p.cliCQ, remote.RKey)
}

// TestDeadlockBothSidesPost: one QP pair, both sides posting into the other
// at once, 10 000 operations each, each NIC's one region the source of its
// writes and the target of the peer's, and every frame either way delivered
// inline. A sender that held its QP's lock across Send would park both
// posters, each holding its own QP lock and waiting for the other's.
func TestDeadlockBothSidesPost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := newPair(t, DefaultConfig())
	a := lockedRegion(p.cli, 0x10000)
	b := lockedRegion(p.srv, 0x10000)
	const n = 10_000
	runBounded(t, 2*time.Minute,
		func() error { return closedLoop(p.cliQP, p.cliCQ, n, 8, mixedWR(0x10000, b.RKey)) },
		func() error { return closedLoop(p.srvQP, p.srvCQ, n, 8, mixedWR(0x10000, a.RKey)) },
	)
}

// TestDeadlockRing: three NICs in a ring, each posting into the next through
// a passive QP, so every responder runs inline on its predecessor's
// goroutine, and every requester's answer on its successor's; 10 000
// operations each. A NIC's one region is both the source
// of its own writes and the target of its predecessor's, so a requester that
// kept its region's DMA lock across Send would close a lock cycle round the
// ring (A's lock → B's → C's → A's).
func TestDeadlockRing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := NewFabric()
	t.Cleanup(f.Close)
	const ring, n = 3, 10_000
	nics := make([]*NIC, ring)
	mrs := make([]*MR, ring)
	for i := range nics {
		nics[i] = NewNIC(f, wire.MAC{2, 0, 0, 0, 1, byte(i)}, wire.IPv4Addr{10, 0, 1, byte(i)}, DefaultConfig())
		t.Cleanup(nics[i].Close)
		mrs[i] = lockedRegion(nics[i], 0x10000)
	}
	loops := make([]func() error, ring)
	for i := range nics {
		next := (i + 1) % ring
		cq := NewCQ()
		q, _ := ConnectPair(nics[i], cq, uint32(100*i), nics[next], uint32(100*i+50))
		wr := mixedWR(0x10000, mrs[next].RKey)
		loops[i] = func() error { return closedLoop(q, cq, n, 8, wr) }
	}
	runBounded(t, 2*time.Minute, loops...)
	if got := f.Stats().Inline; got == 0 {
		t.Fatal("no request frame was handled inline; the ring tests nothing")
	}
}

// TestInlineOrderAcrossKnobFlips: a closed loop whose fabric changes under
// it every 100 frames — latency between 0 and 2 µs, a drop-nothing loss
// predicate on and off — so the server's flow keeps switching between the
// delay line and the inline path. A request handled inline while an earlier
// one of its flow still sat on the line would open a PSN gap, which the
// responder NAKs and the requester answers with a replay; the RTO is far
// above the run's round trips, so a replay can come from nothing else.
func TestInlineOrderAcrossKnobFlips(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Second
	p := newPair(t, cfg)
	lockedRegion(p.cli, 0x10000)
	remote := lockedRegion(p.srv, 0x10000)
	keepAll := func([]byte) bool { return false }
	last := int64(-1)
	flip := func() {
		k := p.fabric.Stats().Frames / 100
		if k == last {
			return
		}
		last = k
		if k%2 == 1 {
			p.fabric.SetLatency(2 * time.Microsecond)
		} else {
			p.fabric.SetLatency(0)
		}
		if k/2%2 == 1 {
			p.fabric.SetLossFn(keepAll)
		} else {
			p.fabric.SetLossFn(nil)
		}
	}
	const n = 10_000
	wr := func(i int) WorkRequest {
		flip()
		w := WorkRequest{ID: uint64(i), Verb: VerbRead, LocalVA: 0x10000 + uint64(i%256)*64, Length: 64, RemoteVA: 0x10000 + uint64(i%256)*64, RKey: remote.RKey}
		if i%4 == 0 {
			w.Verb = VerbWrite
		}
		return w
	}
	runBounded(t, 2*time.Minute, func() error { return closedLoop(p.cliQP, p.cliCQ, n, 16, wr) })
	if st := p.cli.Stats(); st.Replays != 0 {
		t.Fatalf("%d replays: a request overtook a queued one (%+v)", st.Replays, st)
	}
	if in := p.fabric.Stats().Inline; in == 0 || in >= n {
		t.Fatalf("Inline = %d of %d requests: the run did not switch between the two paths", in, n)
	}
}

// nonQPSwitch is a FrameReleaser interposer that forwards every frame and,
// before every third, sends its destination a frame for no QP, which
// NIC.Input drops on whichever path it takes. Its extra frames come from
// Fabric.FrameBuf, as a releaser's must.
type nonQPSwitch struct {
	f   *Fabric
	n   int
	out [][]byte
}

func (s *nonQPSwitch) Process(fr []byte) [][]byte {
	s.out = s.out[:0]
	if s.n++; s.n%3 == 0 {
		nf := s.f.FrameBuf(64)[:64]
		clear(nf)
		copy(nf[0:6], fr[0:6])
		nf[12], nf[13] = 0x88, 0xB6 // local experimental EtherType: no IPv4, no QP
		s.out = append(s.out, nf)
	}
	return append(s.out, fr)
}

func (s *nonQPSwitch) ReleasesFrames() {}

// TestInterposedInlineOrder: behind a switch, the frames it returns reach
// the hosts through the fabric's egress FIFO, each going inline or to the
// delay line as the fabric stands when it leaves the FIFO. A closed loop
// runs while the latency flips between 0 and 2 µs every 100 frames and the
// switch puts a non-QP frame in front of every third: a QP frame handed
// inline while an earlier one of its flow still sat on the line would open
// a PSN gap, which the responder NAKs and the requester answers with a
// replay; the RTO is far above the run's round trips, so a replay can come
// from nothing else. Then, with a switch that keeps every frame it passes,
// no frame may be recycled after it was handled inline: the switch never
// promised to let go of them.
func TestInterposedInlineOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Second
	p := newPair(t, cfg)
	lockedRegion(p.cli, 0x10000)
	remote := lockedRegion(p.srv, 0x10000)
	p.fabric.SetInterposer(&nonQPSwitch{f: p.fabric})
	last := int64(-1)
	wr := func(i int) WorkRequest {
		if k := p.fabric.Stats().Frames / 100; k != last {
			last = k
			p.fabric.SetLatency(time.Duration(k%2) * 2 * time.Microsecond)
		}
		w := WorkRequest{ID: uint64(i), Verb: VerbRead, LocalVA: 0x10000 + uint64(i%256)*64, Length: 64, RemoteVA: 0x10000 + uint64(i%256)*64, RKey: remote.RKey}
		if i%4 == 0 {
			w.Verb = VerbWrite
		}
		return w
	}
	const n = 10_000
	runBounded(t, 2*time.Minute, func() error { return closedLoop(p.cliQP, p.cliCQ, n, 16, wr) })
	if st := p.cli.Stats(); st.Replays != 0 {
		t.Fatalf("%d replays: a frame overtook a queued one (%+v)", st.Replays, st)
	}
	st := p.fabric.Stats()
	if st.Inline == 0 || st.Inline >= st.Frames*2/3 {
		t.Fatalf("Inline = %d of %d frames: the run did not switch between the two paths", st.Inline, st.Frames)
	}

	// A switch that keeps every frame, and a copy of it, and checks at the
	// end that no frame changed under it.
	p.fabric.SetLatency(0)
	var kept, copies [][]byte
	p.fabric.SetInterposer(InterposerFunc(func(fr []byte) [][]byte {
		kept, copies = append(kept, fr), append(copies, append([]byte(nil), fr...))
		return [][]byte{fr}
	}))
	inline := p.fabric.Stats().Inline
	if err := closedLoop(p.cliQP, p.cliCQ, 2000, 16, mixedWR(0x10000, remote.RKey)); err != nil {
		t.Fatal(err)
	}
	if p.fabric.Stats().Inline == inline {
		t.Fatal("no frame was handled inline behind the retaining switch: the check tests nothing")
	}
	p.fabric.fwdMu.Lock() // the switch appends under the forwarding lock
	defer p.fabric.fwdMu.Unlock()
	for i := range kept {
		if !bytes.Equal(kept[i], copies[i]) {
			t.Fatalf("frame %d of %d changed after the fabric handled it: a retained frame was recycled", i, len(kept))
		}
	}
}

// TestQueuedCountsEgress: behind an interposer, Fabric.Queued counts a
// frame from the moment the interposer returns it until its handler
// returns: waiting in the egress FIFO, or being handed to its QP by the
// goroutine draining the FIFO. The server QP's lock is held, so that
// goroutine stops inside the delivery of the client's WRITE; meanwhile the
// switch, asked through frames addressed to itself, sees the WRITE in
// delivery and then an ACK for the client queued behind it.
func TestQueuedCountsEgress(t *testing.T) {
	p := newPair(t, DefaultConfig())
	lockedRegion(p.cli, 0x10000)
	remote := lockedRegion(p.srv, 0x10000)
	self := wire.MAC{2, 0, 0, 0, 0, 0xEE}
	var asked [][2]bool // per question: the server's QP queued, the client's
	p.fabric.SetInterposer(InterposerFunc(func(fr []byte) [][]byte {
		if bytes.Equal(fr[0:6], self[:]) {
			asked = append(asked, [2]bool{p.fabric.Queued(p.srv.MAC(), p.srvQP.QPN()), p.fabric.Queued(p.cli.MAC(), p.cliQP.QPN())})
			return nil
		}
		return [][]byte{fr}
	}))
	ask := func() [2]bool {
		p.fabric.Send(append(self[:], make([]byte, 8)...))
		p.fabric.fwdMu.Lock()
		defer p.fabric.fwdMu.Unlock()
		return asked[len(asked)-1]
	}
	if got := ask(); got != [2]bool{} {
		t.Fatalf("queued %v on an idle fabric", got)
	}

	release := p.srvQP.hold()
	defer release() // a failed check must not leave the cleanups' Close waiting for it
	posted := make(chan error, 1)
	go func() {
		posted <- p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x10000, Length: 64, RemoteVA: 0x10000, RKey: remote.RKey})
	}()
	srvMAC := p.srv.MAC()
	srvFlow := flow{macKey(srvMAC[:]), p.srvQP.QPN()}
	for {
		p.fabric.fwdMu.Lock()
		in := p.fabric.cur == srvFlow
		p.fabric.fwdMu.Unlock()
		if in {
			break
		}
		runtime.Gosched()
	}
	if got := ask(); got != [2]bool{true, false} {
		t.Fatalf("queued %v with the WRITE in delivery, want the server's QP only", got)
	}
	// An ACK for the client, below its first PSN so that it changes nothing,
	// waits in the FIFO behind the WRITE.
	ack := wire.Packet{}
	ack.Eth.Src, ack.Eth.Dst = p.srv.MAC(), p.cli.MAC()
	ack.IP.Src, ack.IP.Dst = p.srv.IP(), p.cli.IP()
	ack.BTH = wire.BTH{OpCode: wire.OpAcknowledge, DestQP: p.cliQP.QPN(), PSN: 99}
	ack.AETH = wire.AETH{Syndrome: wire.SyndromeACK}
	fr, err := ack.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	p.fabric.Send(fr)
	if got := ask(); got != [2]bool{true, true} {
		t.Fatalf("queued %v with the ACK in the FIFO, want both QPs", got)
	}
	release()
	if err := <-posted; err != nil {
		t.Fatal(err)
	}
	var cqe [1]CQE
	if n := p.cliCQ.PollInto(cqe[:]); n != 1 || cqe[0].Status != StatusOK {
		t.Fatalf("the WRITE did not complete inside PostSend: %d completions (%+v)", n, cqe[0])
	}
	if got := ask(); got != [2]bool{} {
		t.Fatalf("queued %v once the FIFO drained", got)
	}
}
