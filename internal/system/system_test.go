package system

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cowbird/internal/core"
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
	var wg sync.WaitGroup
	for ti := 0; ti < 3; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th, err := s.Client.Thread(ti)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(ti)))
			g := th.PollCreate()
			base := uint64(ti) * 1 << 20 // disjoint pool slices per thread
			// Write a pattern, then read it back, across many offsets.
			const ops = 60
			bufs := make([][]byte, ops)
			want := make([][]byte, ops)
			for i := 0; i < ops; i++ {
				size := rng.Intn(900) + 8
				data := make([]byte, size)
				rng.Read(data)
				want[i] = data
				off := base + uint64(i)*1024
				id, err := th.AsyncWrite(0, data, off)
				if err != nil {
					t.Errorf("thread %d write %d: %v", ti, i, err)
					return
				}
				if err := g.Add(id); err != nil {
					t.Error(err)
					return
				}
				bufs[i] = make([]byte, size)
				rid, err := th.AsyncRead(0, off, bufs[i])
				if err != nil {
					t.Errorf("thread %d read %d: %v", ti, i, err)
					return
				}
				if err := g.Add(rid); err != nil {
					t.Error(err)
					return
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			got := 0
			for got < 2*ops && time.Now().Before(deadline) {
				got += len(g.Wait(2*ops-got, 100*time.Millisecond))
			}
			if got != 2*ops {
				t.Errorf("thread %d: %d of %d completions", ti, got, 2*ops)
				return
			}
			for i := range bufs {
				if !bytes.Equal(bufs[i], want[i]) {
					t.Errorf("thread %d op %d: data mismatch", ti, i)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
}

// testRingWrapWithRetry drives enough traffic through tiny rings to wrap
// them several times, exercising the retry-on-full path.
func testRingWrapWithRetry(t *testing.T, kind EngineKind) {
	s := startSystem(t, func(c *Config) {
		c.Engine = kind
		c.Layout = rings.Layout{MetaEntries: 8, ReqDataBytes: 2048, RespDataBytes: 2048}
	})
	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	const ops = 100
	pending := 0
	verify := make(map[core.ReqID]func() bool)
	bufs := make([][]byte, 0, ops)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < ops; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 300)
		off := uint64(i%16) * 512
		for {
			id, err := th.AsyncWrite(0, data, off)
			if err == nil {
				if err := g.Add(id); err != nil {
					t.Fatal(err)
				}
				pending++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("write %d never fit: %v", i, err)
			}
			pending -= len(g.Wait(pending, 10*time.Millisecond))
		}
		dest := make([]byte, 300)
		bufs = append(bufs, dest)
		for {
			id, err := th.AsyncRead(0, off, dest)
			if err == nil {
				if err := g.Add(id); err != nil {
					t.Fatal(err)
				}
				pending++
				_ = verify
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("read %d never fit: %v", i, err)
			}
			pending -= len(g.Wait(pending, 10*time.Millisecond))
		}
	}
	for pending > 0 && time.Now().Before(deadline) {
		pending -= len(g.Wait(pending, 100*time.Millisecond))
	}
	if pending != 0 {
		t.Fatalf("%d requests never completed", pending)
	}
	// Each read followed its overlapping write: RAW means it must have
	// seen that write's data.
	for i, b := range bufs {
		if b[0] != byte(i) || b[299] != byte(i) {
			t.Fatalf("read %d returned stale/corrupt data (%d)", i, b[0])
		}
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
	s := startSystem(t, func(c *Config) {
		c.Engine = EngineP4
		// Generous relative to the fabric's RTT even under -race slowdown:
		// a timeout shorter than a healthy round trip causes spurious
		// recoveries that look like livelock.
		c.P4.Timeout = 40 * time.Millisecond
	})
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
