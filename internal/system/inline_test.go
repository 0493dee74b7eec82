package system

import (
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/telemetry"
)

// frameCounter is a drop-nothing loss predicate that counts frames.
// Installed, it puts every frame under the fabric's forwarding lock, where
// the fabric also decides which frames go inline, so the predicate can read
// its count and the fabric's Inline counter as of one frame.
type frameCounter struct {
	f      *rdma.Fabric
	frames int64 // the predicate's calls never overlap
	ask    chan chan [2]int64
}

func countFrames(f *rdma.Fabric) *frameCounter {
	c := &frameCounter{f: f, ask: make(chan chan [2]int64, 1)}
	f.SetLossFn(c.pass)
	return c
}

func (c *frameCounter) pass(fr []byte) bool {
	select {
	case reply := <-c.ask:
		reply <- [2]int64{c.frames, c.f.Stats().Inline}
	default:
	}
	c.frames++
	return false
}

// read returns the frames counted so far and the fabric's Inline counter,
// both as of the next frame forwarded: every frame before it is in both
// counts, and no frame after it in either.
func (c *frameCounter) read(t *testing.T) (frames, inline int64) {
	t.Helper()
	reply := make(chan [2]int64, 1)
	c.ask <- reply
	select {
	case v := <-reply:
		return v[0], v[1]
	case <-time.After(10 * time.Second):
		t.Fatal("no frame crossed the fabric")
		return 0, 0
	}
}

// runMixed drives n 64 B operations through thread 0 of c, three reads to a
// write, eight at a time, spread over the client's first stripes regions.
func runMixed(t *testing.T, c *core.Client, n, stripes int) {
	t.Helper()
	th, err := c.Thread(0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	ids := make([]core.ReqID, 0, len(bufs))
	for i := 0; i < n; {
		ids = ids[:0]
		for j := 0; j < len(bufs) && i < n; j, i = j+1, i+1 {
			region, off := uint16(i%stripes), uint64(i%512)*64
			var id core.ReqID
			if i%4 == 0 {
				id, err = th.AsyncWrite(region, data, off)
			} else {
				id, err = th.AsyncRead(region, off, bufs[j])
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			ids = append(ids, id)
		}
		if !th.WaitAll(ids, 10*time.Second) {
			t.Fatalf("ops before %d timed out", i)
		}
	}
}

// checkInline asserts that between the two readings every frame went inline:
// none took the fabric's delay line, to the responders or to the engine.
func checkInline(t *testing.T, frames, inline int64) {
	t.Helper()
	t.Logf("%d frames, %d inline", frames, inline)
	if frames < 4000 {
		t.Fatalf("%d frames for 2 000 operations: the run measured nothing", frames)
	}
	if inline != frames {
		t.Fatalf("Inline grew by %d over %d frames: every frame is handed over on its sender's goroutine here", inline, frames)
	}
}

// TestInlineRespondersSystem: in a lossless, zero-latency spot System no
// frame takes the delay line. Every request the engine sends — probes,
// fetches, response and bookkeeping writes, pool reads and writes — is
// handled by the memory pool or the compute node on the engine's goroutine,
// and so is every READ response and ACK back to the engine.
func TestInlineRespondersSystem(t *testing.T) {
	s := startSystem(t, nil)
	fc := countFrames(s.Fabric)
	// A frame sent before the predicate was installed is counted inline
	// without passing it; the warm-up outlasts any such frame.
	runMixed(t, s.Client, 200, 1)
	f0, i0 := fc.read(t)
	runMixed(t, s.Client, 2000, 1)
	f1, i1 := fc.read(t)
	checkInline(t, f1-f0, i1-i0)
}

// TestInlineRespondersFleet is the same check on a Fleet: two tenants
// striped over three memnodes, 2 000 operations between them. The counter
// is installed before the first tenant, while the fabric is still silent.
func TestInlineRespondersFleet(t *testing.T) {
	cfg := DefaultFleetConfig()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fc := countFrames(f.Fabric)
	var tenants []*Tenant
	for id := 0; id < 2; id++ {
		ten, err := f.AddTenant(id)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, ten)
	}
	f0, i0 := fc.read(t)
	for _, ten := range tenants {
		runMixed(t, ten.Client, 1000, cfg.StripesPerTenant)
	}
	f1, i1 := fc.read(t)
	checkInline(t, f1-f0, i1-i0)
}

// TestInlineP4System: the same check behind the P4 switch. Every frame the
// switch emits — probes, fetches, pool reads and writes, response and
// bookkeeping writes — is handled by the compute node or the memory pool on
// the goroutine draining the fabric's egress FIFO, and every answer re-enters
// the switch on it, so no frame takes the delay line once the deployment is
// set up. The switch's input, the frames handed to Send, is logged per
// operation: READ responses and ACKs the switch consumes, which Frames does
// not count.
func TestInlineP4System(t *testing.T) {
	s := startSystem(t, func(c *Config) { c.Engine = EngineP4 })
	fc := countFrames(s.Fabric)
	runMixed(t, s.Client, 200, 1)
	f0, i0 := fc.read(t)
	sent0 := s.Fabric.Stats().Sent
	runMixed(t, s.Client, 2000, 1)
	f1, i1 := fc.read(t)
	t.Logf("%.2f frames sent per operation", float64(s.Fabric.Stats().Sent-sent0)/2000)
	checkInline(t, f1-f0, i1-i0)
}

// TestFabricMetricsScrape: the fabric's gauges land in the deployment's
// registry, and a scrape after a lossless spot run shows what the counters
// do: every frame handled inline and nothing on the retry path. The engine is stopped before the last scrape, so no
// frame is between the two counters it reads.
func TestFabricMetricsScrape(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	s := startSystem(t, func(c *Config) { c.Telemetry = tel })
	runMixed(t, s.Client, 2000, 1)
	s.Spot.Stop()
	after := tel.Reg.Snapshot().Gauges
	if frames := after["cowbird_fabric_frames"]; frames < 4000 || after["cowbird_fabric_inline"] != frames {
		t.Fatalf("scraped %d frames, %d inline: want every frame of the run inline", frames, after["cowbird_fabric_inline"])
	}
	if sent := after["cowbird_fabric_sent"]; sent != after["cowbird_fabric_frames"] {
		t.Fatalf("scraped %d frames sent and %d delivered: without a switch every frame sent is delivered", sent, after["cowbird_fabric_frames"])
	}
	if after["cowbird_rdma_rto_expiries"] != 0 || after["cowbird_rdma_replays"] != 0 {
		t.Fatalf("a lossless run took the retry path: %v", after)
	}
	st := s.Spot.Stats()
	if st.EmptyProbes != after["cowbird_spot_empty_probes"] || st.EmptyProbes > st.Probes {
		t.Fatalf("EmptyProbes = %d (scraped %d) of %d probes", st.EmptyProbes, after["cowbird_spot_empty_probes"], st.Probes)
	}
	t.Logf("client waits: %+v", s.Client.Stats())
}
