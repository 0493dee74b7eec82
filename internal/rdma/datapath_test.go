package rdma

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"cowbird/internal/wire"
)

// writeAndWait posts one 64-byte write and spins until its completion
// arrives, using only non-allocating calls. scratch must have room for one
// CQE.
func writeAndWait(t *testing.T, p *pair, scratch []CQE) {
	if err := p.cliQP.PostSend(WorkRequest{ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: 64, RemoteVA: 0x2000, RKey: p.srvRKey}); err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	for i := 0; ; i++ {
		if p.cliCQ.PollInto(scratch) > 0 {
			return
		}
		if i > 1_000_000 {
			t.Fatal("completion never arrived")
		}
		runtime.Gosched()
	}
}

// allocPair is newPair plus registered 4 KiB regions on both ends, for the
// allocation and fast-path tests.
type allocPairExt struct {
	*pair
	cliBuf, srvBuf []byte
}

func newAllocPair(t *testing.T, cfg Config) *allocPairExt {
	p := newPair(t, cfg)
	cliBuf := make([]byte, 4096)
	srvBuf := make([]byte, 4096)
	p.cli.RegisterMR(0x1000, cliBuf)
	srvMR := p.srv.RegisterMR(0x2000, srvBuf)
	p.srvRKey = srvMR.RKey
	return &allocPairExt{pair: p, cliBuf: cliBuf, srvBuf: srvBuf}
}

// TestSteadyStateWriteAllocFree is the CI allocation gate for the tentpole:
// after warmup (ring growth, frame-pool fill, timer creation), a complete
// write round trip — PostSend, pooled emit, fabric fast path, responder
// copy, pooled ACK, completion — must allocate nothing.
func TestSteadyStateWriteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI lane")
	}
	p := newAllocPair(t, DefaultConfig())
	scratch := make([]CQE, 1)
	for i := 0; i < 200; i++ { // warmup: grow rings, fill the frame pool
		writeAndWait(t, p.pair, scratch)
	}
	allocs := testing.AllocsPerRun(200, func() {
		writeAndWait(t, p.pair, scratch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state write path allocates %.2f objects/op, want 0", allocs)
	}
}

// TestSteadyStateReadAllocFree gates the read path the same way: request
// out, segmented response back, completion.
func TestSteadyStateReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI lane")
	}
	p := newAllocPair(t, DefaultConfig())
	scratch := make([]CQE, 1)
	readAndWait := func() {
		if err := p.cliQP.PostSend(WorkRequest{ID: 2, Verb: VerbRead, LocalVA: 0x1000, Length: 64, RemoteVA: 0x2000, RKey: p.srvRKey}); err != nil {
			t.Fatalf("PostSend: %v", err)
		}
		for i := 0; ; i++ {
			if p.cliCQ.PollInto(scratch) > 0 {
				return
			}
			if i > 1_000_000 {
				t.Fatal("completion never arrived")
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 200; i++ {
		readAndWait()
	}
	if allocs := testing.AllocsPerRun(200, readAndWait); allocs != 0 {
		t.Fatalf("steady-state read path allocates %.2f objects/op, want 0", allocs)
	}
}

// TestFastPathRecyclesFrames checks the pooling lifecycle end to end: after
// steady traffic between two NICs (both non-retaining devices) with no
// slow-path knobs installed, delivered frames must come back to the pool.
func TestFastPathRecyclesFrames(t *testing.T) {
	p := newAllocPair(t, DefaultConfig())
	scratch := make([]CQE, 1)
	for i := 0; i < 50; i++ {
		writeAndWait(t, p.pair, scratch)
	}
	quiesce(p.pair)
	if p.fabric.pool.large.len() == 0 {
		t.Error("no large frames recycled: data packets bypassed the pool")
	}
	if p.fabric.pool.small.len() == 0 {
		t.Error("no small frames recycled: ACKs bypassed the pool")
	}
}

// TestInterposerDisablesRecycling: frames that pass through an interposer
// may be retained by it, so none may be recycled.
func TestInterposerDisablesRecycling(t *testing.T) {
	p := newAllocPair(t, DefaultConfig())
	var retained [][]byte
	var mu sync.Mutex
	p.fabric.SetInterposer(InterposerFunc(func(frame []byte) [][]byte {
		mu.Lock()
		retained = append(retained, frame) // an interposer that keeps every frame
		mu.Unlock()
		return [][]byte{frame}
	}))
	scratch := make([]CQE, 1)
	for i := 0; i < 20; i++ {
		writeAndWait(t, p.pair, scratch)
	}
	quiesce(p.pair)
	if n := p.fabric.pool.small.len() + p.fabric.pool.large.len(); n != 0 {
		t.Fatalf("%d frames recycled despite the interposer retaining them", n)
	}
	// The retained frames must still be intact RoCEv2 packets (nobody
	// scribbled over them after delivery).
	mu.Lock()
	defer mu.Unlock()
	var pkt wire.Packet
	for _, fr := range retained {
		if err := pkt.DecodeFromBytes(fr); err != nil {
			t.Fatalf("retained frame corrupted after delivery: %v", err)
		}
	}
}

// releasingSwitch is a minimal FrameReleaser: it forwards every frame
// untouched through a reused return slice, except frames addressed to its
// own MAC, which it consumes — the two things the P4 engine does to frames.
type releasingSwitch struct {
	mac wire.MAC
	out [1][]byte
}

func (r *releasingSwitch) ReleasesFrames() {}

func (r *releasingSwitch) Process(frame []byte) [][]byte {
	if [6]byte(frame[:6]) == r.mac {
		return nil
	}
	r.out[0] = frame
	return r.out[:]
}

// TestReleasingInterposerRecycles: an interposer that makes the
// FrameReleaser promise gets the direct path's frame lifecycle — forwarded
// frames return to the pool after delivery, with the data intact — and a
// frame it consumes returns at once, unless it is too small for any class
// (the P4 generator tick). The same identity interposer without the marker
// recycles nothing, as TestInterposerDisablesRecycling demands.
func TestReleasingInterposerRecycles(t *testing.T) {
	traffic := func(t *testing.T, ip Interposer) *allocPairExt {
		p := newAllocPair(t, DefaultConfig())
		p.fabric.SetInterposer(ip)
		copy(p.cliBuf, bytes.Repeat([]byte{0xA7}, 64))
		scratch := make([]CQE, 1)
		for i := 0; i < 50; i++ {
			writeAndWait(t, p.pair, scratch)
		}
		quiesce(p.pair)
		if !bytes.Equal(p.srvBuf[:64], p.cliBuf[:64]) {
			t.Fatal("data corrupted through the interposer")
		}
		return p
	}

	sw := &releasingSwitch{mac: wire.MAC{2, 0xEE, 0xEE, 0, 0, 9}}
	p := traffic(t, sw)
	if p.fabric.pool.large.len() == 0 || p.fabric.pool.small.len() == 0 {
		t.Fatalf("released frames bypassed the pool: %d small, %d large",
			p.fabric.pool.small.len(), p.fabric.pool.large.len())
	}
	small := p.fabric.pool.small.len()
	consumed := p.fabric.FrameBuf(64)[:64]
	small-- // FrameBuf drew it from the pool
	copy(consumed, sw.mac[:])
	p.fabric.Send(consumed)
	if got := p.fabric.pool.small.len(); got != small+1 {
		t.Fatalf("consumed frame not returned to the pool: %d small buffers, want %d", got, small+1)
	}
	tick := make([]byte, wire.EthernetLen)
	copy(tick, sw.mac[:])
	p.fabric.Send(tick)
	if got := p.fabric.pool.small.len(); got != small+1 {
		t.Fatalf("a %d-byte consumed frame entered the pool", len(tick))
	}

	p = traffic(t, InterposerFunc(sw.Process))
	if n := p.fabric.pool.small.len() + p.fabric.pool.large.len(); n != 0 {
		t.Fatalf("%d frames recycled through an interposer that made no promise", n)
	}
}

// TestLatencyAppliesOnFastPath: SetLatency must delay delivery even when
// frames take the direct path (latency is an inbox property, not a
// forwarding one).
func TestLatencyAppliesOnFastPath(t *testing.T) {
	p := newAllocPair(t, DefaultConfig())
	scratch := make([]CQE, 1)
	writeAndWait(t, p.pair, scratch) // settle: pools filled, fast path active
	p.fabric.SetLatency(2 * time.Millisecond)
	start := time.Now()
	writeAndWait(t, p.pair, scratch)
	// One write round trip pays the latency twice (request + ACK).
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("round trip took %v with 2ms one-way latency, want >= ~4ms", elapsed)
	}
}

// TestLossPredicateAllocFree: a loss predicate moves forwarding under the
// forwarding lock and changes nothing else. Under one that drops nothing, a
// write round trip allocates nothing — every frame still comes from the pool
// and goes back to it — and the data arrives intact; a frame the predicate
// drops goes back to the pool at once.
func TestLossPredicateAllocFree(t *testing.T) {
	p := newAllocPair(t, DefaultConfig())
	p.fabric.SetLossFn(func([]byte) bool { return false })
	copy(p.cliBuf, bytes.Repeat([]byte{0xEE}, 64))
	scratch := make([]CQE, 1)
	for i := 0; i < 200; i++ { // warmup: grow rings, fill the frame pool
		writeAndWait(t, p.pair, scratch)
	}
	if !raceEnabled { // race instrumentation allocates
		if allocs := testing.AllocsPerRun(200, func() { writeAndWait(t, p.pair, scratch) }); allocs != 0 {
			t.Fatalf("write path under a loss predicate allocates %.2f objects/op, want 0", allocs)
		}
	}
	quiesce(p.pair)
	if !bytes.Equal(p.srvBuf[:64], p.cliBuf[:64]) {
		t.Fatal("data corrupted under the loss predicate")
	}

	p.fabric.SetLossFn(func([]byte) bool { return true })
	fr := p.fabric.FrameBuf(64)[:64]
	srv := p.srv.MAC()
	copy(fr, srv[:])
	small := p.fabric.pool.small.len()
	p.fabric.Send(fr)
	if got := p.fabric.pool.small.len(); got != small+1 {
		t.Fatalf("dropped frame not returned to the pool: %d small buffers, want %d", got, small+1)
	}
}
