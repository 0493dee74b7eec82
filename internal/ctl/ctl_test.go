package ctl

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/core"
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
// compute node's Phase I dials into), then the server comes up. CallRetry rides
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

// TestCallRetryHonorsContext: the retry loop gives up when the context
// expires, wrapping the last transport error — against a dead endpoint,
// and against one that accepts and never answers, whose exchange the
// context cuts short.
func TestCallRetryHonorsContext(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close() // the backlog accepts every dial; nothing answers
	for _, addr := range []string{"127.0.0.1:1", silent.Addr().String()} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		start := time.Now()
		if _, err := CallRetry(ctx, addr, Request{Op: "x"}); err == nil {
			t.Fatalf("%s: unreachable endpoint succeeded", addr)
		}
		cancel()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: retry loop outlived its context: %v", addr, d)
		}
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
