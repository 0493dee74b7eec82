package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cowbird/internal/wire"
)

// pair wires two NICs ("client" and "server") together on one fabric with a
// connected QP on each side.
type pair struct {
	fabric *Fabric
	cli    *NIC
	srv    *NIC
	cliQP  *QP
	srvQP  *QP
	cliCQ  *CQ
	srvCQ  *CQ
	srvRCQ *CQ

	srvRKey uint32 // filled by helpers that register server-side regions
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	f := NewFabric()
	t.Cleanup(f.Close)
	cli := NewNIC(f, wire.MAC{2, 0, 0, 0, 0, 1}, wire.IPv4Addr{10, 0, 0, 1}, cfg)
	srv := NewNIC(f, wire.MAC{2, 0, 0, 0, 0, 2}, wire.IPv4Addr{10, 0, 0, 2}, cfg)
	t.Cleanup(cli.Close)
	t.Cleanup(srv.Close)
	cliCQ, srvCQ, srvRCQ := NewCQ(), NewCQ(), NewCQ()
	cq2 := NewCQ()
	cliQP := cli.CreateQP(cliCQ, cq2, 100)
	srvQP := srv.CreateQP(srvCQ, srvRCQ, 7000)
	cliQP.Connect(RemoteEndpoint{QPN: srvQP.QPN(), MAC: srv.MAC(), IP: srv.IP()}, 7000)
	srvQP.Connect(RemoteEndpoint{QPN: cliQP.QPN(), MAC: cli.MAC(), IP: cli.IP()}, 100)
	return &pair{fabric: f, cli: cli, srv: srv, cliQP: cliQP, srvQP: srvQP, cliCQ: cliCQ, srvCQ: srvCQ, srvRCQ: srvRCQ}
}

// quiesce stops the client NIC's retransmissions and waits for in-flight
// frames to drain, so tests can inspect buffers without racing against late
// Go-Back-N duplicates (which rewrite the same bytes, but concurrently).
func quiesce(p *pair) {
	p.cli.Close()
	prev := p.fabric.Stats().Frames
	for {
		time.Sleep(2 * time.Millisecond)
		cur := p.fabric.Stats().Frames
		if cur == prev {
			break
		}
		prev = cur
	}
	// A sender or the delay line may still be handing the server a frame;
	// Close takes the NIC lock, so it returns only after any in-flight
	// handler finishes, and later deliveries become no-ops.
	p.srv.Close()
}

// waitCQE polls cq until n completions arrive or the deadline passes.
func waitCQE(t *testing.T, cq *CQ, n int, timeout time.Duration) []CQE {
	t.Helper()
	deadline := time.Now().Add(timeout)
	out := make([]CQE, n)
	for got := 0; got < n; {
		if k := cq.PollInto(out[got:]); k > 0 {
			got += k
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d completions, have %d", n, got)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return out
}

func TestRDMAWriteSmall(t *testing.T) {
	p := newPair(t, DefaultConfig())
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, dst)

	err := p.cliQP.PostSend(WorkRequest{
		ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64,
		RemoteVA: 0x9000, RKey: remote.RKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusOK || es[0].WRID != 1 || es[0].Verb != VerbWrite {
		t.Fatalf("bad CQE: %+v", es[0])
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("remote buffer does not match source")
	}
}

func TestRDMAWriteSegmented(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	n := cfg.MTU*3 + 123 // 4 segments: First, Middle, Middle, Last
	src := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(src)
	dst := make([]byte, n)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, dst)

	if err := p.cliQP.PostSend(WorkRequest{ID: 2, Verb: VerbWrite, LocalVA: 0x1000, Length: uint32(n), RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	waitCQE(t, p.cliCQ, 1, time.Second)
	if !bytes.Equal(src, dst) {
		t.Fatal("segmented write corrupted data")
	}
}

// TestDuplicateWriteIgnored: a duplicate WRITE packet lands nothing and
// leaves the message being reassembled alone. Two 3 KiB writes, A and B, are
// captured off the wire and fed to the responder as A1 A2 A3 B1 A1 B2 B3:
// the stale A1 arrives between B's first and second segment, and must not
// take over B's write context, or B2 and B3 would land nowhere.
func TestDuplicateWriteIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 10 * time.Second // no replay joins the capture
	p := newPair(t, cfg)
	const n = 3 << 10
	src := append(bytes.Repeat([]byte{0xAA}, n), bytes.Repeat([]byte{0xBB}, n)...)
	dst := make([]byte, 2*n)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, dst)
	srv := p.srv.MAC()
	var reqs [][]byte // the requests, in sending order
	p.fabric.SetLossFn(func(fr []byte) bool {
		if [6]byte(fr[:6]) != srv {
			return false
		}
		reqs = append(reqs, append([]byte(nil), fr...))
		return true
	})
	for i := uint64(0); i < 2; i++ {
		if err := p.cliQP.PostSend(WorkRequest{ID: i, Verb: VerbWrite, LocalVA: 0x1000 + i*n, Length: n, RemoteVA: 0x9000 + i*n, RKey: remote.RKey}); err != nil {
			t.Fatal(err)
		}
	}
	p.fabric.SetLossFn(nil)
	if len(reqs) != 6 {
		t.Fatalf("captured %d request frames, want 6", len(reqs))
	}
	for _, i := range []int{0, 1, 2, 3, 0, 4, 5} {
		p.srv.Input(reqs[i])
	}
	for _, e := range waitCQE(t, p.cliCQ, 2, 5*time.Second) {
		if e.Status != StatusOK {
			t.Fatalf("write %d: %v", e.WRID, e.Status)
		}
	}
	for at := range dst {
		if dst[at] != src[at] {
			t.Fatalf("write %c: byte %d reads %02x, want %02x", "AB"[at/n], at%n, dst[at], src[at])
		}
	}
}

func TestRDMAReadSmall(t *testing.T) {
	p := newPair(t, DefaultConfig())
	remoteData := []byte("the quick brown fox jumps over remote memory")
	local := make([]byte, len(remoteData))
	p.cli.RegisterMR(0x1000, local)
	remote := p.srv.RegisterMR(0x9000, remoteData)

	if err := p.cliQP.PostSend(WorkRequest{ID: 3, Verb: VerbRead, LocalVA: 0x1000, Length: uint32(len(remoteData)), RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusOK || es[0].Verb != VerbRead {
		t.Fatalf("bad CQE: %+v", es[0])
	}
	if !bytes.Equal(local, remoteData) {
		t.Fatalf("read returned %q", local)
	}
}

func TestRDMAReadSegmented(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	n := cfg.MTU*2 + 1 // 3 response packets
	remoteData := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(remoteData)
	local := make([]byte, n)
	p.cli.RegisterMR(0x1000, local)
	remote := p.srv.RegisterMR(0x9000, remoteData)

	if err := p.cliQP.PostSend(WorkRequest{ID: 4, Verb: VerbRead, LocalVA: 0x1000, Length: uint32(n), RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	waitCQE(t, p.cliCQ, 1, time.Second)
	if !bytes.Equal(local, remoteData) {
		t.Fatal("segmented read corrupted data")
	}
}

func TestPipelinedWritesCompleteInOrder(t *testing.T) {
	p := newPair(t, DefaultConfig())
	const k = 32
	src := make([]byte, 64*k)
	rand.New(rand.NewSource(3)).Read(src)
	dst := make([]byte, 64*k)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, dst)

	for i := 0; i < k; i++ {
		err := p.cliQP.PostSend(WorkRequest{
			ID: uint64(i), Verb: VerbWrite,
			LocalVA: 0x1000 + uint64(i)*64, Length: 64,
			RemoteVA: 0x9000 + uint64(i)*64, RKey: remote.RKey,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	es := waitCQE(t, p.cliCQ, k, 2*time.Second)
	for i, e := range es {
		if e.WRID != uint64(i) {
			t.Fatalf("completion %d has WRID %d; completions out of order", i, e.WRID)
		}
	}
	quiesce(p)
	if !bytes.Equal(src, dst) {
		t.Fatal("pipelined writes corrupted data")
	}
}

func TestMixedReadsAndWritesInterleaved(t *testing.T) {
	p := newPair(t, DefaultConfig())
	serverMem := make([]byte, 4096)
	for i := range serverMem {
		serverMem[i] = byte(i * 7)
	}
	clientMem := make([]byte, 4096)
	p.cli.RegisterMR(0x1000, clientMem)
	remote := p.srv.RegisterMR(0x9000, serverMem)

	// write 0..2048 from client, read 2048..4096 from server
	copy(clientMem[:2048], bytes.Repeat([]byte{0xAA}, 2048))
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 2048, RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	if err := p.cliQP.PostSend(WorkRequest{ID: 2, Verb: VerbRead, LocalVA: 0x1000 + 2048, Length: 2048, RemoteVA: 0x9000 + 2048, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 2, 2*time.Second)
	if es[0].WRID != 1 || es[1].WRID != 2 {
		t.Fatalf("order: %+v", es)
	}
	quiesce(p)
	if !bytes.Equal(serverMem[:2048], bytes.Repeat([]byte{0xAA}, 2048)) {
		t.Fatal("write did not land")
	}
	if !bytes.Equal(clientMem[2048:], serverMem[2048:]) {
		t.Fatal("read returned wrong data")
	}
}

func TestRemoteAccessErrorBadRKey(t *testing.T) {
	p := newPair(t, DefaultConfig())
	src := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	if err := p.cliQP.PostSend(WorkRequest{ID: 9, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: 0xdead}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusRemoteAccessError {
		t.Fatalf("status = %v, want REMOTE_ACCESS_ERROR", es[0].Status)
	}
	// QP is now in error state, and says why.
	err := p.cliQP.PostSend(WorkRequest{ID: 10, Verb: VerbWrite, LocalVA: 0x1000, Length: 64})
	var qe *QPError
	if !errors.Is(err, ErrQPError) || !errors.As(err, &qe) || qe.Status != StatusRemoteAccessError {
		t.Fatalf("post on errored QP: %v", err)
	}
}

func TestRemoteAccessErrorOutOfBounds(t *testing.T) {
	p := newPair(t, DefaultConfig())
	src := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, make([]byte, 32))
	if err := p.cliQP.PostSend(WorkRequest{ID: 9, Verb: VerbRead, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusRemoteAccessError {
		t.Fatalf("status = %v", es[0].Status)
	}
}

func TestLocalTranslationError(t *testing.T) {
	p := newPair(t, DefaultConfig())
	err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0xFFFF, Length: 64})
	if err == nil {
		t.Fatal("unregistered local VA accepted")
	}
}

func TestPostOnUnconnectedQP(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	nic := NewNIC(f, wire.MAC{2, 0, 0, 0, 0, 9}, wire.IPv4Addr{10, 0, 0, 9}, DefaultConfig())
	defer nic.Close()
	nic.RegisterMR(0x1000, make([]byte, 64))
	qp := nic.CreateQP(NewCQ(), NewCQ(), 0)
	if err := qp.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 8}); err != ErrNotConnected {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

// TestGoBackNUnderLoss drops a deterministic subset of frames and verifies
// that Go-Back-N recovers every operation with correct data.
func TestGoBackNUnderLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 300 * time.Microsecond
	cfg.MaxRetries = 200
	p := newPair(t, cfg)

	var mu sync.Mutex
	drop := 0
	rng := rand.New(rand.NewSource(99))
	p.fabric.SetLossFn(func(frame []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(100) < 20 { // 20% loss
			drop++
			return true
		}
		return false
	})

	const k = 40
	src := make([]byte, 2500*k)
	rand.New(rand.NewSource(5)).Read(src)
	dst := make([]byte, 2500*k)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x90000, dst)

	for i := 0; i < k; i++ {
		wr := WorkRequest{
			ID: uint64(i), LocalVA: 0x1000 + uint64(i)*2500, Length: 2500,
			RemoteVA: 0x90000 + uint64(i)*2500, RKey: remote.RKey,
		}
		if i%2 == 0 {
			wr.Verb = VerbWrite
		} else {
			// Read back what we wrote in the previous iteration.
			wr.Verb = VerbRead
		}
		if err := p.cliQP.PostSend(wr); err != nil {
			t.Fatal(err)
		}
	}
	es := waitCQE(t, p.cliCQ, k, 20*time.Second)
	for i, e := range es {
		if e.Status != StatusOK {
			t.Fatalf("WR %d failed: %v", e.WRID, e.Status)
		}
		if e.WRID != uint64(i) {
			t.Fatalf("completion %d out of order (WRID %d)", i, e.WRID)
		}
	}
	quiesce(p)
	for i := 0; i < k; i += 2 {
		lo, hi := 2500*i, 2500*(i+1)
		if !bytes.Equal(dst[lo:hi], src[lo:hi]) {
			t.Fatalf("write %d corrupted under loss", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if drop == 0 {
		t.Fatal("loss injector never fired; test is vacuous")
	}
	t.Logf("%d frames dropped; retry path %+v, RTO %v", drop, p.cli.Stats(), p.cliQP.RTO())
}

func TestRetryExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 200 * time.Microsecond
	cfg.MaxRetries = 3
	p := newPair(t, cfg)
	// Black-hole everything.
	p.fabric.SetLossFn(func([]byte) bool { return true })
	src := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: 1}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, 5*time.Second)
	if es[0].Status != StatusRetryExceeded {
		t.Fatalf("status = %v, want RETRY_EXCEEDED", es[0].Status)
	}
}

func TestConcurrentPosters(t *testing.T) {
	p := newPair(t, DefaultConfig())
	const threads = 8
	const perThread = 50
	size := 128
	src := make([]byte, threads*perThread*size)
	rand.New(rand.NewSource(11)).Read(src)
	dst := make([]byte, len(src))
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x200000, dst)

	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				off := uint64((th*perThread + i) * size)
				for {
					err := p.cliQP.PostSend(WorkRequest{
						ID: off, Verb: VerbWrite,
						LocalVA: 0x1000 + off, Length: uint32(size),
						RemoteVA: 0x200000 + off, RKey: remote.RKey,
					})
					if err == nil {
						break
					}
					time.Sleep(10 * time.Microsecond)
				}
			}
		}(th)
	}
	wg.Wait()
	waitCQE(t, p.cliCQ, threads*perThread, 10*time.Second)
	quiesce(p)
	if !bytes.Equal(src, dst) {
		t.Fatal("concurrent writes corrupted data")
	}
}

func TestExtend24(t *testing.T) {
	cases := []struct {
		ref  uint32
		w    uint32
		want uint32
	}{
		{100, 100, 100},
		{100, 101, 101},
		{0x00fffffe, 0x000001, 0x01000001}, // wrap forward
		{0x01000001, 0xfffffe, 0x00fffffe}, // wrap backward
		{0x02abcdef, 0xabcdf0, 0x02abcdf0}, // same epoch
		{5, 0xfffffb, 0xfffffb},            // near zero, no negative epoch
	}
	for _, c := range cases {
		if got := extend24(c.ref, c.w&0x00ffffff); got != c.want {
			t.Errorf("extend24(%#x, %#x) = %#x, want %#x", c.ref, c.w, got, c.want)
		}
	}
}

func TestFabricStatsAndUnknownMAC(t *testing.T) {
	p := newPair(t, DefaultConfig())
	src := make([]byte, 8)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, make([]byte, 8))
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 8, RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	waitCQE(t, p.cliCQ, 1, time.Second)
	st := p.fabric.Stats()
	if st.Frames < 2 { // write + ack
		t.Fatalf("stats = %+v, want >= 2 frames", st)
	}
	// A frame to an unknown MAC is silently dropped, not a crash.
	p.fabric.Send(make([]byte, 60))
	time.Sleep(time.Millisecond)
}

func TestZeroLengthWrite(t *testing.T) {
	p := newPair(t, DefaultConfig())
	p.cli.RegisterMR(0x1000, make([]byte, 8))
	remote := p.srv.RegisterMR(0x9000, make([]byte, 8))
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 0, RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusOK || es[0].Bytes != 0 {
		t.Fatalf("CQE: %+v", es[0])
	}
}

func TestCQNotify(t *testing.T) {
	cq := NewCQ()
	select {
	case <-cq.Notify():
		t.Fatal("notified before any completion")
	default:
	}
	cq.push(CQE{WRID: 1})
	cq.push(CQE{WRID: 2}) // coalesced
	select {
	case <-cq.Notify():
	case <-time.After(time.Second):
		t.Fatal("no notification")
	}
	if got := cq.Len(); got != 2 {
		t.Fatalf("Len = %d", got)
	}
	var buf [8]CQE
	if n := cq.PollInto(buf[:]); n != 2 || buf[0].WRID != 1 || buf[1].WRID != 2 {
		t.Fatalf("PollInto = %d %+v", n, buf[:n])
	}
}

func TestNICCloseFlushesOutstanding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = time.Hour // never retransmit
	p := newPair(t, cfg)
	p.fabric.SetLossFn(func([]byte) bool { return true })
	src := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: 5}); err != nil {
		t.Fatal(err)
	}
	p.cli.Close()
	es := waitCQE(t, p.cliCQ, 1, time.Second)
	if es[0].Status != StatusFlushed {
		t.Fatalf("status = %v, want FLUSHED", es[0].Status)
	}
}

func TestPcapTapCapturesTraffic(t *testing.T) {
	p := newPair(t, DefaultConfig())
	var buf bytes.Buffer
	tap, err := NewPcapTap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p.fabric.SetTap(tap)
	src := make([]byte, 64)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, make([]byte, 64))
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	waitCQE(t, p.cliCQ, 1, time.Second)
	p.fabric.SetTap(nil)
	if tap.Frames() < 2 { // write + ACK
		t.Fatalf("captured %d frames", tap.Frames())
	}
	if tap.Err() != nil {
		t.Fatal(tap.Err())
	}
	// Validate the pcap structure: magic, then per-frame headers whose
	// lengths walk the buffer exactly.
	b := buf.Bytes()
	if len(b) < 24 || binary.LittleEndian.Uint32(b) != 0xa1b2c3d4 {
		t.Fatal("bad global header")
	}
	if lt := binary.LittleEndian.Uint32(b[20:]); lt != 1 {
		t.Fatalf("linktype = %d, want 1 (Ethernet)", lt)
	}
	off := 24
	n := 0
	for off < len(b) {
		if off+16 > len(b) {
			t.Fatal("truncated record header")
		}
		caplen := int(binary.LittleEndian.Uint32(b[off+8:]))
		origlen := int(binary.LittleEndian.Uint32(b[off+12:]))
		if caplen != origlen || caplen < 14 {
			t.Fatalf("record %d: caplen %d orig %d", n, caplen, origlen)
		}
		off += 16 + caplen
		n++
	}
	if off != len(b) || int64(n) != tap.Frames() {
		t.Fatalf("pcap structure: walked %d records to %d of %d bytes", n, off, len(b))
	}
	// Every captured frame must parse as RoCEv2.
	off = 24
	var pkt wire.Packet
	for off < len(b) {
		caplen := int(binary.LittleEndian.Uint32(b[off+8:]))
		if err := pkt.DecodeFromBytes(b[off+16 : off+16+caplen]); err != nil {
			t.Fatalf("captured frame does not decode: %v", err)
		}
		off += 16 + caplen
	}
}

func TestReadPcapRoundTrip(t *testing.T) {
	p := newPair(t, DefaultConfig())
	var buf bytes.Buffer
	tap, err := NewPcapTap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p.fabric.SetTap(tap)
	src := make([]byte, 32)
	p.cli.RegisterMR(0x1000, src)
	remote := p.srv.RegisterMR(0x9000, make([]byte, 32))
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 32, RemoteVA: 0x9000, RKey: remote.RKey}); err != nil {
		t.Fatal(err)
	}
	waitCQE(t, p.cliCQ, 1, time.Second)
	// Removing the tap does not stop a delivery that already loaded the
	// snapshot carrying it, so quiesce both NICs before touching the buffer:
	// their Close returns once every in-flight handler, and with it every
	// Capture, has finished. Frames takes the tap's lock, which orders those
	// writes before the read below.
	quiesce(p)
	captured := tap.Frames()

	records, err := ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(records)) != captured {
		t.Fatalf("read %d records, captured %d", len(records), captured)
	}
	var pkt wire.Packet
	sawWrite, sawAck := false, false
	for _, r := range records {
		if err := pkt.DecodeFromBytes(r.Frame); err != nil {
			t.Fatalf("record does not decode: %v", err)
		}
		if pkt.BTH.OpCode == wire.OpWriteOnly {
			sawWrite = true
		}
		if pkt.BTH.OpCode == wire.OpAcknowledge {
			sawAck = true
		}
	}
	if !sawWrite || !sawAck {
		t.Fatalf("capture missing write/ack (write=%v ack=%v)", sawWrite, sawAck)
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := ReadPcap(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero magic accepted")
	}
}
