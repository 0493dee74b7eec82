package ctl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

func TestCallRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, func(req Request) Response {
		if req.Op != "alloc_region" || req.Size != 4096 {
			return Response{Err: "unexpected request"}
		}
		return Response{Region: &core.RegionInfo{ID: req.RegionID, Size: req.Size, RKey: 7}}
	})
	resp, err := Call(l.Addr().String(), Request{Op: "alloc_region", RegionID: 3, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Region == nil || resp.Region.ID != 3 || resp.Region.RKey != 7 {
		t.Fatalf("response: %+v", resp)
	}
}

func TestCallSurfacesErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, func(Request) Response { return Response{Err: "nope"} })
	if _, err := Call(l.Addr().String(), Request{Op: "x"}); err == nil {
		t.Fatal("error response not surfaced")
	}
	if _, err := Call("127.0.0.1:1", Request{Op: "x"}); err == nil {
		t.Fatal("dial failure not surfaced")
	}
}

func TestInstanceSurvivesJSON(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got *core.Instance
	go Serve(l, func(req Request) Response {
		got = req.Instance
		return Response{}
	})
	in := &core.Instance{
		ID: 5,
		Queues: []core.QueueInfo{{
			Index: 0, BaseVA: 0x1000,
			Layout: rings.Layout{MetaEntries: 8, ReqDataBytes: 64, RespDataBytes: 64},
			RKey:   9,
		}},
		Regions: []core.RegionInfo{{ID: 1, Base: 2, Size: 3, RKey: 4}},
	}
	if _, err := Call(l.Addr().String(), Request{Op: "setup", Instance: in}); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ID != 5 || len(got.Queues) != 1 || got.Queues[0].Layout.MetaEntries != 8 {
		t.Fatalf("instance lost in transit: %+v", got)
	}
	if r, ok := got.Region(1); !ok || r.RKey != 4 {
		t.Fatalf("region lost: %+v", got.Regions)
	}
}

// TestCallRetryRidesThroughStartup: the endpoint's first connections die
// without a response (the process is "still starting", the situation a
// standby takeover dials into), then the server comes up. CallRetry rides
// through the transport failures and returns the eventual response.
func TestCallRetryRidesThroughStartup(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var conns atomic.Int32
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if conns.Add(1) <= 2 {
				c.Close() // no response: transport error at the caller
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				var req Request
				if json.NewDecoder(c).Decode(&req) == nil {
					_ = json.NewEncoder(c).Encode(Response{QPN: 42})
				}
			}(c)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := CallRetry(ctx, l.Addr().String(), Request{Op: "create_qp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.QPN != 42 {
		t.Fatalf("response: %+v", resp)
	}
	if n := conns.Load(); n < 3 {
		t.Fatalf("expected at least 3 connection attempts, saw %d", n)
	}
}

// TestCallRetryNoRetryOnAppError: an application-level error in the reply
// is deterministic — retrying it would just repeat the same failure — so
// CallRetry must return it after exactly one call.
func TestCallRetryNoRetryOnAppError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var calls atomic.Int32
	go Serve(l, func(Request) Response {
		calls.Add(1)
		return Response{Err: "boom"}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := CallRetry(ctx, l.Addr().String(), Request{Op: "x"}); err == nil {
		t.Fatal("application error not surfaced")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("application error retried: %d calls", n)
	}
}

// TestCallRetryFencedFailsFast: a Fenced response (DESIGN.md §14 — this
// caller was superseded by a newer epoch) is a verdict, not a transient: it
// must surface as core.ErrFenced after exactly one attempt, so a deposed
// orchestrator can never retry its way back into the control plane.
func TestCallRetryFencedFailsFast(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var calls atomic.Int32
	go Serve(l, func(Request) Response {
		calls.Add(1)
		return Response{Err: "engine fenced (superseded by a newer epoch)", Fenced: true}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = CallRetry(ctx, l.Addr().String(), Request{Op: "setup"})
	if !errors.Is(err, core.ErrFenced) {
		t.Fatalf("fenced response surfaced as %v, want core.ErrFenced", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fenced verdict retried: %d calls", n)
	}
	// Plain Call carries the same typed verdict.
	if _, err := Call(l.Addr().String(), Request{Op: "setup"}); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("Call fenced response = %v, want core.ErrFenced", err)
	}
}

// TestCallRetryHonorsContext: with a dead endpoint the retry loop gives up
// when the context expires, wrapping the last transport error.
func TestCallRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := CallRetry(ctx, "127.0.0.1:1", Request{Op: "x"}); err == nil {
		t.Fatal("dead endpoint succeeded")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("retry loop outlived its context: %v", d)
	}
}

// TestCallRetryAttemptBudget: with a dead endpoint and MaxAttempts set, the
// loop stops after exactly that many dials instead of spinning until the
// context expires.
func TestCallRetryAttemptBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p := RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Source:      rand.NewSource(1),
	}
	start := time.Now()
	_, err := CallRetryPolicy(ctx, "127.0.0.1:1", Request{Op: "x"}, p)
	if err == nil {
		t.Fatal("dead endpoint succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error does not report the exhausted budget: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("budgeted retry took %v; the budget did not bound the loop", d)
	}
}

// TestJitterDeterministic: the jitter sequence is a pure function of the
// seeded source and stays within [backoff/2, backoff] — what lets chaos
// schedules replay control-plane retry timing exactly.
func TestJitterDeterministic(t *testing.T) {
	const backoff = 80 * time.Millisecond
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 64; i++ {
		da, db := jitter(a, backoff), jitter(b, backoff)
		if da != db {
			t.Fatalf("iteration %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < backoff/2 || da > backoff {
			t.Fatalf("jitter %v outside [%v, %v]", da, backoff/2, backoff)
		}
	}
}

// TestUDPDeployment is the multi-process deployment, in-process: three
// fabrics (compute, engine, pool) in one test binary, exchanging RoCEv2
// frames over real UDP loopback sockets — the same datapath the
// cowbird-{app,engine,memnode} commands use.
func TestUDPDeployment(t *testing.T) {
	// Pool process.
	poolFab := rdma.NewFabric()
	t.Cleanup(poolFab.Close)
	poolBr, err := rdma.NewUDPBridge(poolFab, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(poolBr.Close)
	pool := memnode.New(poolFab, PoolMAC, PoolIP, rdma.DefaultConfig())
	t.Cleanup(pool.Close)

	// Engine process.
	engFab := rdma.NewFabric()
	t.Cleanup(engFab.Close)
	engBr, err := rdma.NewUDPBridge(engFab, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engBr.Close)
	engNIC := rdma.NewNIC(engFab, EngineMAC, EngineIP, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	engCfg := spot.DefaultConfig()
	engCfg.ProbeInterval = 50 * time.Microsecond
	eng := spot.New(engNIC, engCfg)

	// Compute process.
	compFab := rdma.NewFabric()
	t.Cleanup(compFab.Close)
	compBr, err := rdma.NewUDPBridge(compFab, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(compBr.Close)
	compNIC := rdma.NewNIC(compFab, ComputeMAC, ComputeIP, rdma.DefaultConfig())
	t.Cleanup(compNIC.Close)
	client, err := core.NewClient(compNIC, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Peer wiring (what add_peer_addr does in the commands).
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(poolBr.AddPeer(ComputeMAC, compBr.LocalAddr()))
	must(poolBr.AddPeer(EngineMAC, engBr.LocalAddr()))
	must(engBr.AddPeer(ComputeMAC, compBr.LocalAddr()))
	must(engBr.AddPeer(PoolMAC, poolBr.LocalAddr()))
	must(compBr.AddPeer(PoolMAC, poolBr.LocalAddr()))
	must(compBr.AddPeer(EngineMAC, engBr.LocalAddr()))

	// Phase I Setup (what the ctl RPCs do in the commands).
	region, err := pool.AllocRegion(0, 1<<20)
	must(err)
	client.RegisterRegion(region)
	mQP := pool.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), 4000)
	cQP := compNIC.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 2000)
	unused := rdma.NewCQ()
	eComp := engNIC.CreateQP(eng.CQ(), unused, 5000)
	eMem := engNIC.CreateQP(eng.CQ(), unused, 6000)
	eComp.Connect(rdma.RemoteEndpoint{QPN: cQP.QPN(), MAC: ComputeMAC, IP: ComputeIP}, 2000)
	eMem.Connect(rdma.RemoteEndpoint{QPN: mQP.QPN(), MAC: PoolMAC, IP: PoolIP}, 4000)
	cQP.Connect(rdma.RemoteEndpoint{QPN: eComp.QPN(), MAC: EngineMAC, IP: EngineIP}, 5000)
	mQP.Connect(rdma.RemoteEndpoint{QPN: eMem.QPN(), MAC: EngineMAC, IP: EngineIP}, 6000)
	in := client.Describe(0)
	must(eng.Register(spot.Registration{Instance: in, ComputeQP: eComp, Pools: []spot.PoolReplica{{QP: eMem, Regions: in.Regions}}}))
	eng.Run()
	t.Cleanup(eng.Stop)

	// Workload over the real sockets.
	th, err := client.Thread(0)
	must(err)
	payload := bytes.Repeat([]byte("udp!"), 64)
	must(th.WriteSync(0, payload, 8192, 30*time.Second))
	dest := make([]byte, len(payload))
	must(th.ReadSync(0, 8192, dest, 30*time.Second))
	if !bytes.Equal(dest, payload) {
		t.Fatalf("round trip over UDP corrupted data: %q", dest[:16])
	}
	got, err := pool.Peek(0, 8192, len(payload))
	must(err)
	if !bytes.Equal(got, payload) {
		t.Fatal("pool contents wrong")
	}
}

func TestUDPBridgeBadAddrs(t *testing.T) {
	f := rdma.NewFabric()
	defer f.Close()
	if _, err := rdma.NewUDPBridge(f, "not-an-addr:xyz"); err == nil {
		t.Fatal("bad listen address accepted")
	}
	b, err := rdma.NewUDPBridge(f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.AddPeer(ComputeMAC, "bogus:port:extra"); err == nil {
		t.Fatal("bad peer address accepted")
	}
	if b.LocalAddr() == "" {
		t.Fatal("no local address")
	}
	b.Close() // double close is safe
}
