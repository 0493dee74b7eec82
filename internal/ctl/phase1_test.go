package ctl_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/ctl"
	"cowbird/internal/engine/spot"
	"cowbird/internal/ha"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

// serveCtl serves h on a loopback address, the way each cowbird-* command
// serves its control port, and returns the address at once. With a delay,
// the address stays closed (dials are refused) until delay has passed: a
// process that starts after the compute node begins Phase I.
func serveCtl(t *testing.T, delay time.Duration, h ctl.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if delay == 0 {
		t.Cleanup(func() { l.Close() })
		go ctl.Serve(l, h)
		return addr
	}
	l.Close()
	opened := make(chan net.Listener, 1)
	go func() {
		time.Sleep(delay)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			opened <- nil
			return
		}
		opened <- l
		ctl.Serve(l, h)
	}()
	t.Cleanup(func() {
		if l := <-opened; l != nil {
			l.Close()
		}
	})
	return addr
}

// bridged is one process's fabric, bridged to the others over a real UDP
// loopback socket.
func bridged(t *testing.T) (*rdma.Fabric, *rdma.UDPBridge) {
	t.Helper()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	br, err := rdma.NewUDPBridge(f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	return f, br
}

// deployment is the three-process deployment in one test binary: a
// memnode serving ctl.MemnodeHandler, an engine serving ha.EngineControl,
// and a compute node, each with its own fabric, exchanging RoCEv2 frames
// over real UDP loopback sockets. The control ports open ctlDelay after
// deploy returns.
type deployment struct {
	pool           *memnode.Node
	client         *core.Client
	nic            *rdma.NIC
	compData       string
	memCtl, engCtl string
	memData        string
	engData        string
}

func deploy(t *testing.T, ctlDelay time.Duration) *deployment {
	t.Helper()
	poolFab, poolBr := bridged(t)
	pool := memnode.New(poolFab, ctl.PoolMAC, ctl.PoolIP, rdma.DefaultConfig())
	t.Cleanup(pool.Close)

	engFab, engBr := bridged(t)
	engNIC := rdma.NewNIC(engFab, ctl.EngineMAC, ctl.EngineIP, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	engCfg := spot.DefaultConfig()
	engCfg.ProbeInterval = 50 * time.Microsecond
	eng := spot.New(engNIC, engCfg)
	eng.Run()
	t.Cleanup(eng.Stop)
	ec := ha.NewEngineControl(eng, engBr, engNIC, ctl.EngineMAC, ctl.EngineIP, false)

	compFab, compBr := bridged(t)
	nic := rdma.NewNIC(compFab, ctl.ComputeMAC, ctl.ComputeIP, rdma.DefaultConfig())
	t.Cleanup(nic.Close)
	client, err := core.NewClient(nic, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for mac, addr := range map[[6]byte]string{ctl.PoolMAC: poolBr.LocalAddr(), ctl.EngineMAC: engBr.LocalAddr()} {
		if err := compBr.AddPeer(mac, addr); err != nil {
			t.Fatal(err)
		}
	}
	return &deployment{
		pool: pool, client: client, nic: nic, compData: compBr.LocalAddr(),
		memCtl: serveCtl(t, ctlDelay, ctl.MemnodeHandler(pool, poolBr)), memData: poolBr.LocalAddr(),
		engCtl: serveCtl(t, ctlDelay, ec.Handle), engData: engBr.LocalAddr(),
	}
}

// phase1 is cmd/cowbird-app's Phase I: peer wiring, the region, and Setup
// of the client's one queue set.
func (d *deployment) phase1(ctx context.Context) error {
	for _, p := range []struct {
		ctl, data string
		mac       [6]byte
	}{
		{d.memCtl, d.compData, ctl.ComputeMAC},
		{d.memCtl, d.engData, ctl.EngineMAC},
		{d.engCtl, d.compData, ctl.ComputeMAC},
		{d.engCtl, d.memData, ctl.PoolMAC},
	} {
		if err := ctl.AddPeer(ctx, p.ctl, p.mac, p.data); err != nil {
			return err
		}
	}
	region, err := ctl.AllocRegion(ctx, d.memCtl, 0, 1<<20)
	if err != nil {
		return err
	}
	d.client.RegisterRegion(region)
	return ctl.Setup(ctx, d.nic, d.client.Describe(0), d.memCtl, d.engCtl)
}

// roundTrip writes payload at off, reads it back and checks it, and checks
// the pool's own copy.
func (d *deployment) roundTrip(t *testing.T, off uint64, payload []byte) {
	t.Helper()
	th, err := d.client.Thread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.WriteSync(0, payload, off, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	dest := make([]byte, len(payload))
	if err := th.ReadSync(0, off, dest, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dest, payload) {
		t.Fatalf("round trip over UDP corrupted data: %q", dest[:16])
	}
	got, err := d.pool.Peek(0, off, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pool contents wrong")
	}
}

// TestUDPDeployment is the multi-process deployment, in-process: Phase I
// over the control plane with the commands' own handlers and set-up, then
// a write and a read over the real UDP sockets.
func TestUDPDeployment(t *testing.T) {
	d := deploy(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.phase1(ctx); err != nil {
		t.Fatal(err)
	}
	d.roundTrip(t, 8192, bytes.Repeat([]byte("udp!"), 64))
}

// TestSetupRidesThroughLateListeners: the memnode's and the engine's
// control ports open about 200 ms after the compute node's first dial, as
// when cowbird-app starts before the other two. Every dial before then is
// refused, so a sequence of plain ctl.Call fails; the shared set-up retries
// through it and the deployment serves.
func TestSetupRidesThroughLateListeners(t *testing.T) {
	const delay = 200 * time.Millisecond
	start := time.Now()
	d := deploy(t, delay)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.phase1(ctx); err != nil {
		t.Fatalf("Phase I against late listeners: %v", err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("Phase I finished in %v, before the listeners opened", took)
	}
	d.roundTrip(t, 0, bytes.Repeat([]byte("late"), 16))
}

// TestMemnodeHandlerRejectsBadRequests: requests arrive from outside the
// process, so a missing endpoint, an unknown QPN, a region size of zero or
// above the cap, or an unknown op must get an error response; a panic here
// would take the memnode process down.
func TestMemnodeHandlerRejectsBadRequests(t *testing.T) {
	f, br := bridged(t)
	node := memnode.New(f, ctl.PoolMAC, ctl.PoolIP, rdma.DefaultConfig())
	t.Cleanup(node.Close)
	h := ctl.MemnodeHandler(node, br)
	resp := h(ctl.Request{Op: "create_qp", FirstPSN: 1})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	qpn := resp.QPN
	for name, req := range map[string]ctl.Request{
		"add_peer_addr without remote": {Op: "add_peer_addr", PeerAddr: "127.0.0.1:1"},
		"connect_qp without remote":    {Op: "connect_qp", QPN: qpn},
		"connect_qp to unknown QPN":    {Op: "connect_qp", QPN: qpn + 100, Remote: &ctl.QPEndpoint{QPN: 1}},
		"unknown op":                   {Op: "frobnicate"},
		"empty region":                 {Op: "alloc_region", RegionID: 1},
		"region above the cap":         {Op: "alloc_region", RegionID: 2, Size: ctl.MaxRegionBytes + 1},
		"region of 1<<63 bytes":        {Op: "alloc_region", RegionID: 3, Size: 1 << 63},
	} {
		if resp := h(req); resp.Err == "" {
			t.Errorf("%s: answered %+v, want an error", name, resp)
		}
	}
}

// TestAddPeerOfLocalMACIsAnError: an add_peer_addr naming a MAC a device of
// the process's own fabric already holds — the memnode's or the engine's own
// NIC — must get an error response. Attaching a second device under that MAC
// panics, and Serve runs handlers without recover, so a panic here would let
// any control-port client take the process down.
func TestAddPeerOfLocalMACIsAnError(t *testing.T) {
	poolFab, poolBr := bridged(t)
	pool := memnode.New(poolFab, ctl.PoolMAC, ctl.PoolIP, rdma.DefaultConfig())
	t.Cleanup(pool.Close)

	engFab, engBr := bridged(t)
	engNIC := rdma.NewNIC(engFab, ctl.EngineMAC, ctl.EngineIP, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	eng := spot.New(engNIC, spot.DefaultConfig())
	ec := ha.NewEngineControl(eng, engBr, engNIC, ctl.EngineMAC, ctl.EngineIP, false)

	for _, c := range []struct {
		name string
		h    ctl.Handler
		mac  [6]byte
	}{
		{"memnode", ctl.MemnodeHandler(pool, poolBr), ctl.PoolMAC},
		{"engine", ec.Handle, ctl.EngineMAC},
	} {
		req := ctl.Request{Op: "add_peer_addr", Remote: &ctl.QPEndpoint{MAC: c.mac}, PeerAddr: "127.0.0.1:1"}
		if resp := c.h(req); resp.Err == "" {
			t.Errorf("%s: add_peer_addr of its own MAC answered %+v, want an error", c.name, resp)
		}
		// A real peer's MAC is still accepted, and again (a re-wire).
		req.Remote.MAC = ctl.ComputeMAC
		for i := 0; i < 2; i++ {
			if resp := c.h(req); resp.Err != "" {
				t.Errorf("%s: add_peer_addr of the compute MAC: %s", c.name, resp.Err)
			}
		}
	}
}
