package system

import (
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// requestCounter is a drop-nothing loss predicate that counts request
// frames. Installed, it puts every frame under the fabric's forwarding lock,
// where the fabric also decides which frames go inline, so the predicate can
// read its count and the fabric's Inline counter as of one frame.
type requestCounter struct {
	f    *rdma.Fabric
	reqs int64 // the predicate's calls never overlap
	ask  chan chan [2]int64
}

func countRequests(f *rdma.Fabric) *requestCounter {
	c := &requestCounter{f: f, ask: make(chan chan [2]int64, 1)}
	f.SetLossFn(c.pass)
	return c
}

func (c *requestCounter) pass(fr []byte) bool {
	select {
	case reply := <-c.ask:
		reply <- [2]int64{c.reqs, c.f.Stats().Inline}
	default:
	}
	const bth = wire.EthernetLen + wire.IPv4Len + wire.UDPLen
	if len(fr) > bth && wire.OpCode(fr[bth]).IsRequest() {
		c.reqs++
	}
	return false
}

// read returns the request frames counted so far and the fabric's Inline
// counter, both as of the next frame forwarded: every frame before it is in
// both counts, and no frame after it in either.
func (c *requestCounter) read(t *testing.T) (reqs, inline int64) {
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

// inboxWakeups sums the inbox wake-ups of nics.
func inboxWakeups(nics []*rdma.NIC) int64 {
	var w int64
	for _, n := range nics {
		w += n.Stats().Wakeups
	}
	return w
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

// checkInline asserts that between the two readings every request frame went
// inline and that none of the responders' inboxes woke.
func checkInline(t *testing.T, reqs, inline, wakeups int64) {
	t.Helper()
	t.Logf("%d request frames, %d inline, %d wake-ups", reqs, inline, wakeups)
	if reqs < 2000 {
		t.Fatalf("%d request frames for 2 000 operations: the run measured nothing", reqs)
	}
	if inline != reqs {
		t.Fatalf("Inline grew by %d over %d request frames: every request goes to a passive QP here", inline, reqs)
	}
	if wakeups != 0 {
		t.Fatalf("the pool and compute-node inboxes woke %d times after set-up, want 0", wakeups)
	}
}

// TestInlineRespondersSystem: in a lossless, zero-latency spot System the
// memory pool and the compute node are plain responders. Every request frame
// the engine sends them — probes, fetches, response and bookkeeping writes,
// pool reads and writes — is handled on the engine's goroutine, and neither
// NIC's inbox goroutine wakes once the deployment is set up.
func TestInlineRespondersSystem(t *testing.T) {
	s := startSystem(t, nil)
	rc := countRequests(s.Fabric)
	nics := []*rdma.NIC{s.Compute}
	for _, p := range s.Pools {
		nics = append(nics, p.NIC())
	}
	// A frame sent before the predicate was installed is counted inline
	// without passing it; the warm-up outlasts any such frame.
	runMixed(t, s.Client, 200, 1)
	r0, i0 := rc.read(t)
	w0 := inboxWakeups(nics)
	runMixed(t, s.Client, 2000, 1)
	r1, i1 := rc.read(t)
	checkInline(t, r1-r0, i1-i0, inboxWakeups(nics)-w0)
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
	rc := countRequests(f.Fabric)
	var nics []*rdma.NIC
	for m := 0; m < cfg.Memnodes; m++ {
		nics = append(nics, f.Memnode(m).NIC())
	}
	var tenants []*Tenant
	for id := 0; id < 2; id++ {
		ten, err := f.AddTenant(id)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, ten)
		nics = append(nics, ten.nic)
	}
	r0, i0 := rc.read(t)
	w0 := inboxWakeups(nics)
	for _, ten := range tenants {
		runMixed(t, ten.Client, 1000, cfg.StripesPerTenant)
	}
	r1, i1 := rc.read(t)
	checkInline(t, r1-r0, i1-i0, inboxWakeups(nics)-w0)
}
