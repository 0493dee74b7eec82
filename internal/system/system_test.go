package system

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
	"cowbird/internal/rings"
)

func startSystem(t *testing.T, mutate func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	cfg.P4.ProbeInterval = 2 * time.Microsecond
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitIDs polls until all ids complete or the deadline passes.
func waitIDs(t *testing.T, g *core.PollGroup, n int, timeout time.Duration) []core.ReqID {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var out []core.ReqID
	for len(out) < n && time.Now().Before(deadline) {
		out = append(out, g.Wait(n-len(out), 50*time.Millisecond)...)
	}
	if len(out) < n {
		t.Fatalf("timed out: %d of %d completions", len(out), n)
	}
	return out
}

// pastDeadline fails op i of a closed loop that completed after deadline.
func pastDeadline(deadline time.Time, i int) error {
	if late := time.Since(deadline); late > 0 {
		return fmt.Errorf("op %d completed %v past the run's deadline", i, late)
	}
	return nil
}

func testReadRoundTrip(t *testing.T, kind EngineKind) {
	s := startSystem(t, func(c *Config) { c.Engine = kind })
	want := bytes.Repeat([]byte("cowbird!"), 32) // 256 B
	if err := s.Pool.Poke(0, 4096, want); err != nil {
		t.Fatal(err)
	}
	th, _ := s.Client.Thread(0)
	dest := make([]byte, len(want))
	id, err := th.AsyncRead(0, 4096, dest)
	if err != nil {
		t.Fatal(err)
	}
	g := th.PollCreate()
	if err := g.Add(id); err != nil {
		t.Fatal(err)
	}
	done := waitIDs(t, g, 1, 10*time.Second)
	if done[0] != id {
		t.Fatalf("completed %v, want %v", done[0], id)
	}
	if !bytes.Equal(dest, want) {
		t.Fatalf("read data mismatch: got %q", dest[:16])
	}
}

func testWriteRoundTrip(t *testing.T, kind EngineKind) {
	s := startSystem(t, func(c *Config) { c.Engine = kind })
	th, _ := s.Client.Thread(0)
	data := bytes.Repeat([]byte{0xCD}, 512)
	id, err := th.AsyncWrite(0, data, 8192)
	if err != nil {
		t.Fatal(err)
	}
	g := th.PollCreate()
	if err := g.Add(id); err != nil {
		t.Fatal(err)
	}
	waitIDs(t, g, 1, 10*time.Second)
	got, err := s.Pool.Peek(0, 8192, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("write did not reach the memory pool")
	}
}

// testReadAfterWrite checks RAW linearizability: a read issued immediately
// after an overlapping write — with no waiting in between — must observe
// the written data.
func testReadAfterWrite(t *testing.T, kind EngineKind) {
	s := startSystem(t, func(c *Config) { c.Engine = kind })
	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	for round := 0; round < 20; round++ {
		data := bytes.Repeat([]byte{byte(round + 1)}, 128)
		wid, err := th.AsyncWrite(0, data, 1024)
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]byte, 128)
		rid, err := th.AsyncRead(0, 1024, dest)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(wid); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(rid); err != nil {
			t.Fatal(err)
		}
		waitIDs(t, g, 2, 10*time.Second)
		if !bytes.Equal(dest, data) {
			t.Fatalf("round %d: read-after-write returned stale data: got %d want %d", round, dest[0], data[0])
		}
	}
}

func testMixedWorkload(t *testing.T, kind EngineKind) {
	s := startSystem(t, func(c *Config) {
		c.Engine = kind
		c.Threads = 3
	})
	// Each thread writes 60 random patterns across disjoint offsets and reads
	// each one back, all 120 ops in flight at once, within 30 s. Any issue
	// error fails the run (%v, not %w, so the driver does not retry a full
	// ring).
	const ops = 120
	deadline := time.Now().Add(30 * time.Second)
	loops := make([]*driver.Loop, 3)
	for ti := range loops {
		th, err := s.Client.Thread(ti)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ti)))
		base := uint64(ti) * 1 << 20 // disjoint pool slices per thread
		want := make([][]byte, ops/2)
		loops[ti] = &driver.Loop{
			Thread: th, Who: fmt.Sprintf("thread %d", ti), Window: ops, Ops: ops, DestBytes: 908, Stall: 30 * time.Second,
			Issue: func(i int, dest []byte) (core.ReqID, error) {
				var id core.ReqID
				var err error
				if off := base + uint64(i/2)*1024; i%2 == 0 {
					want[i/2] = make([]byte, rng.Intn(900)+8)
					rng.Read(want[i/2])
					id, err = th.AsyncWrite(0, want[i/2], off)
				} else {
					id, err = th.AsyncRead(0, off, dest[:len(want[i/2])])
				}
				if err != nil {
					return 0, fmt.Errorf("op %d: %v", i, err)
				}
				return id, nil
			},
			Done: func(i int, dest []byte) error {
				if i%2 == 1 && !bytes.Equal(dest[:len(want[i/2])], want[i/2]) {
					return fmt.Errorf("op %d: data mismatch", i)
				}
				return pastDeadline(deadline, i)
			},
		}
	}
	if err := driver.RunAll(loops, nil); err != nil {
		t.Fatal(err)
	}
}

// testRingWrapWithRetry drives enough traffic through tiny rings to wrap
// them several times, exercising the retry-on-full path.
func testRingWrapWithRetry(t *testing.T, kind EngineKind) {
	s := startSystem(t, func(c *Config) {
		c.Engine = kind
		c.Layout = rings.Layout{MetaEntries: 8, ReqDataBytes: 2048, RespDataBytes: 2048}
	})
	th, _ := s.Client.Thread(0)
	// 100 pairs of a 300 B write and a read of the same block; each read
	// follows its overlapping write, so RAW means it sees that write's data.
	const ops = 200
	deadline := time.Now().Add(30 * time.Second)
	l := &driver.Loop{
		Thread: th, Who: "ring wrap", Window: ops, Ops: ops, DestBytes: 300, Stall: 30 * time.Second,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			off := uint64(i/2%16) * 512
			if i%2 == 0 {
				return th.AsyncWrite(0, bytes.Repeat([]byte{byte(i / 2)}, 300), off)
			}
			return th.AsyncRead(0, off, dest)
		},
		Done: func(i int, dest []byte) error {
			if i%2 == 1 && (dest[0] != byte(i/2) || dest[299] != byte(i/2)) {
				return fmt.Errorf("read %d returned stale/corrupt data (%d)", i/2, dest[0])
			}
			return pastDeadline(deadline, i)
		},
	}
	if err := l.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpotReadRoundTrip(t *testing.T)  { testReadRoundTrip(t, EngineSpot) }
func TestSpotWriteRoundTrip(t *testing.T) { testWriteRoundTrip(t, EngineSpot) }
func TestSpotReadAfterWrite(t *testing.T) { testReadAfterWrite(t, EngineSpot) }
func TestSpotMixedWorkload(t *testing.T)  { testMixedWorkload(t, EngineSpot) }
func TestSpotRingWrap(t *testing.T)       { testRingWrapWithRetry(t, EngineSpot) }

func TestP4ReadRoundTrip(t *testing.T)  { testReadRoundTrip(t, EngineP4) }
func TestP4WriteRoundTrip(t *testing.T) { testWriteRoundTrip(t, EngineP4) }
func TestP4ReadAfterWrite(t *testing.T) { testReadAfterWrite(t, EngineP4) }
func TestP4MixedWorkload(t *testing.T)  { testMixedWorkload(t, EngineP4) }
func TestP4RingWrap(t *testing.T)       { testRingWrapWithRetry(t, EngineP4) }

// TestP4FollowsNICMTU: the switch counts PSNs at its own MTU while the hosts
// segment at theirs, so a NIC MTU other than the P4 default must reach the
// engine. A 4 KiB write then read spans several segments either way; with
// the two MTUs apart it read back wrong bytes (512) or timed out (4096).
func TestP4FollowsNICMTU(t *testing.T) {
	for _, mtu := range []int{512, 4096} {
		t.Run(fmt.Sprint(mtu), func(t *testing.T) {
			s := startSystem(t, func(c *Config) {
				c.Engine = EngineP4
				c.NIC.MTU = mtu
			})
			th, _ := s.Client.Thread(0)
			data := make([]byte, 4096)
			for i := range data {
				data[i] = byte(i*7 + i/251)
			}
			if err := th.WriteSync(0, data, 8192, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			dest := make([]byte, len(data))
			if err := th.ReadSync(0, 8192, dest, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dest, data) {
				t.Fatal("4 KiB read-back differs from the write")
			}
		})
	}
}

// TestSpotBatchingReducesResponseWrites compares batching on vs off: with
// batching, contiguous read responses coalesce into fewer RDMA writes.
func TestSpotBatchingReducesResponseWrites(t *testing.T) {
	run := func(batch int) (batches, reads int64) {
		s := startSystem(t, func(c *Config) {
			c.Engine = EngineSpot
			c.Spot.BatchSize = batch
			// A long probe interval lets requests pile up so one round
			// sees many entries.
			c.Spot.ProbeInterval = 3 * time.Millisecond
		})
		th, _ := s.Client.Thread(0)
		g := th.PollCreate()
		const ops = 64
		dest := make([]byte, 64)
		for i := 0; i < ops; i++ {
			id, err := th.AsyncRead(0, uint64(i*64), dest)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Add(id); err != nil {
				t.Fatal(err)
			}
		}
		waitIDs(t, g, ops, 20*time.Second)
		st := s.Spot.Stats()
		return st.ResponseBatches, st.ReadsExecuted
	}
	b1, r1 := run(1)
	b32, r32 := run(32)
	if r1 != 64 || r32 != 64 {
		t.Fatalf("reads executed: %d, %d; want 64", r1, r32)
	}
	if b1 != 64 {
		t.Fatalf("batching disabled produced %d response writes, want 64", b1)
	}
	if b32 >= b1 {
		t.Fatalf("batching did not reduce response writes: %d vs %d", b32, b1)
	}
}

// TestP4RecyclesPackets confirms the switch transforms packets rather than
// generating them: after a workload, recycled >= reads+writes and probes
// were paced.
func TestP4PacketRecyclingStats(t *testing.T) {
	s := startSystem(t, func(c *Config) { c.Engine = EngineP4 })
	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	dest := make([]byte, 256)
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 256)
		wid, err := th.AsyncWrite(0, data, uint64(i)*256)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := th.AsyncRead(0, uint64(i)*256, dest)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(wid); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(rid); err != nil {
			t.Fatal(err)
		}
		waitIDs(t, g, 2, 10*time.Second)
	}
	st := s.P4.Stats()
	if st.ReadsCompleted != 10 || st.WritesCompleted != 10 {
		t.Fatalf("completions: %+v", st)
	}
	if st.ProbesSent == 0 || st.EntriesFetched != 20 {
		t.Fatalf("probe/fetch stats: %+v", st)
	}
	// Every data transfer is a recycled packet: metadata fetches, the
	// read/write conversions, and the bookkeeping updates.
	if st.PacketsRecycled < st.EntriesFetched+st.RedWrites {
		t.Fatalf("too few recycled packets: %+v", st)
	}
}

// TestP4LossRecovery injects heavy loss on the fabric and verifies the
// switch's data-plane timeout + Go-Back-N recovery completes everything
// with correct data.
func TestP4LossRecovery(t *testing.T) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	dropping := false
	dropped := 0
	s := startSystem(t, func(c *Config) { c.Engine = EngineP4 })
	s.Fabric.SetLossFn(func(frame []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if dropping && rng.Intn(100) < 15 {
			dropped++
			return true
		}
		return false
	})
	mu.Lock()
	dropping = true
	mu.Unlock()

	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	const ops = 20
	bufs := make([][]byte, ops)
	for i := 0; i < ops; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 700)
		off := uint64(i) * 1024
		wid, err := th.AsyncWrite(0, data, off)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = make([]byte, 700)
		rid, err := th.AsyncRead(0, off, bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(wid); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(rid); err != nil {
			t.Fatal(err)
		}
	}
	waitIDs(t, g, 2*ops, 180*time.Second)
	mu.Lock()
	d := dropped
	mu.Unlock()
	if d == 0 {
		t.Fatal("loss injector never fired; test is vacuous")
	}
	for i, b := range bufs {
		for j, v := range b {
			if v != byte(i+1) {
				t.Fatalf("read %d byte %d corrupted under loss (%d)", i, j, v)
			}
		}
	}
	if s.P4.Stats().Recoveries == 0 && s.P4.Stats().NAKs == 0 {
		t.Fatal("no recovery was exercised despite drops")
	}
}

// TestP4ReqDataFreedOncePerWrite: under 2 % frame loss a recovery replays
// writes whose payload the switch had already fetched. Their request data
// must be freed once per write, or the red block's ReqDataHead passes the
// client's ReqDataTail and the request-data ring reads full forever. A
// closed loop of window 1 alternates a 64 B write and a read of the same
// block for 400 operations; every read must return the write before it.
func TestP4ReqDataFreedOncePerWrite(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			p4ReqDataUnderLoss(t, seed)
		})
	}
}

func p4ReqDataUnderLoss(t *testing.T, seed int64) {
	const ops, blocks = 400, 16
	s := startSystem(t, func(c *Config) { c.Engine = EngineP4 })
	// The predicate runs one frame at a time under the fabric's forwarding
	// lock, so its generator needs no lock of its own.
	loss := rand.New(rand.NewSource(seed))
	s.Fabric.SetLossFn(func([]byte) bool { return loss.Intn(100) < 2 })
	th, _ := s.Client.Thread(0)
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(seed), byte(i), byte(i >> 8), 0xa5}, 16) }
	// A write may find the request-data ring full for up to 2 s; any other
	// issue error, a full ring on a read included, fails the run (%v, not
	// %w, so the driver does not retry it).
	var fullSince time.Time
	l := &driver.Loop{
		Thread: th, Who: fmt.Sprintf("seed %d", seed), Window: 1, Ops: ops, DestBytes: 64, Stall: 30 * time.Second,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			off := uint64(i/2%blocks) * 64
			var id core.ReqID
			var err error
			if i%2 == 1 {
				id, err = th.AsyncRead(0, off, dest)
			} else if id, err = th.AsyncWrite(0, want(i), off); errors.Is(err, rings.ErrReqDataFull) {
				if fullSince.IsZero() {
					fullSince = time.Now()
				}
				if time.Since(fullSince) < 2*time.Second {
					return 0, err
				}
			}
			if err != nil {
				return 0, fmt.Errorf("op %d: %v", i, err)
			}
			fullSince = time.Time{}
			return id, nil
		},
		Done: func(i int, dest []byte) error {
			if i%2 == 1 && !bytes.Equal(dest, want(i-1)) {
				return fmt.Errorf("read at op %d returned %x, want %x", i, dest, want(i-1))
			}
			return nil
		},
	}
	if err := l.Run(nil); err != nil {
		t.Fatalf("seed %d: %v (red %+v, green %+v, %+v)", seed, err, th.QueueSet().Red(), th.QueueSet().Green(), s.P4.Stats())
	}
	if s.P4.Stats().Recoveries == 0 {
		t.Fatalf("seed %d: no recovery ran; the test is vacuous", seed)
	}
}

// TestP4ReadPathAllocFree is the allocation gate on the path p4_read_64
// measures: a window of sixteen 64-byte reads through the switch — issue,
// probe, metadata fetch, pool read, response write, red-block write, poll —
// allocates nothing once the fabric's frame pool holds the frames in
// circulation. Every frame the engine consumes goes back to that pool and
// every frame it emits is drawn from it (rdma.FrameReleaser).
func TestP4ReadPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI lane")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := startSystem(t, func(c *Config) { c.Engine = EngineP4 })
	const window = 16
	round := p4ReadWindow(t, s)
	for i := 0; i < 200; i++ { // warm-up: fill the frame pool, grow the rings
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("P4 read path allocates %v allocs per %d-read window, want 0", allocs, window)
	}
	if st := s.P4.Stats(); st.ReadsCompleted < 401*window || st.Recoveries != 0 {
		t.Fatalf("the gate did not run on a healthy datapath: %+v", st)
	}
}

// TestSpotLossRecovery: the spot engine rides on host-NIC Go-Back-N.
func TestSpotLossRecovery(t *testing.T) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(9))
	dropping := false
	s := startSystem(t, func(c *Config) {
		c.Engine = EngineSpot
		c.NIC.RetransmitTimeout = time.Millisecond
	})
	s.Fabric.SetLossFn(func(frame []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		return dropping && rng.Intn(100) < 10
	})
	mu.Lock()
	dropping = true
	mu.Unlock()

	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	const ops = 30
	bufs := make([][]byte, ops)
	for i := 0; i < ops; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 700)
		off := uint64(i) * 1024
		wid, err := th.AsyncWrite(0, data, off)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = make([]byte, 700)
		rid, err := th.AsyncRead(0, off, bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(wid); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(rid); err != nil {
			t.Fatal(err)
		}
	}
	waitIDs(t, g, 2*ops, 60*time.Second)
	for i, b := range bufs {
		if b[0] != byte(i+1) || b[699] != byte(i+1) {
			t.Fatalf("read %d corrupted under loss", i)
		}
	}
}

// TestP4PausesReadsDuringWrites verifies the §5.3 conservative rule is
// actually exercised: a write burst followed by reads should hold some
// reads.
func TestP4PausesReadsDuringWrites(t *testing.T) {
	s := startSystem(t, func(c *Config) {
		c.Engine = EngineP4
		// Slow probes so writes and reads land in the same metadata fetch.
		c.P4.ProbeInterval = 2 * time.Millisecond
	})
	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	const rounds = 10
	for i := 0; i < rounds; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 512)
		wid, err := th.AsyncWrite(0, data, uint64(i)*512)
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]byte, 512)
		rid, err := th.AsyncRead(0, uint64(i)*512, dest)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(wid); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(rid); err != nil {
			t.Fatal(err)
		}
		waitIDs(t, g, 2, 10*time.Second)
		if dest[0] != byte(i) {
			t.Fatalf("round %d: stale read", i)
		}
	}
	if s.P4.Stats().ReadsPaused == 0 {
		t.Fatal("pause-all-reads rule never fired for write+read batches")
	}
}

// TestMultiThreadIsolation: two threads on one compute node use disjoint
// queue sets served by the same engine.
func TestSpotMultiQueueTDM(t *testing.T) {
	s := startSystem(t, func(c *Config) {
		c.Engine = EngineSpot
		c.Threads = 4
	})
	var wg sync.WaitGroup
	for ti := 0; ti < 4; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th, _ := s.Client.Thread(ti)
			g := th.PollCreate()
			data := bytes.Repeat([]byte{byte(0x10 + ti)}, 256)
			id, err := th.AsyncWrite(0, data, uint64(ti)*4096)
			if err != nil {
				t.Error(err)
				return
			}
			if err := g.Add(id); err != nil {
				t.Error(err)
				return
			}
			got := g.Wait(1, 10*time.Second)
			if len(got) != 1 {
				t.Errorf("thread %d: write never completed", ti)
			}
		}(ti)
	}
	wg.Wait()
	for ti := 0; ti < 4; ti++ {
		got, err := s.Pool.Peek(0, uint64(ti)*4096, 256)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0x10+ti) {
			t.Fatalf("thread %d data not isolated", ti)
		}
	}
}
