// Package ctl is the out-of-band control plane for multi-process Cowbird
// deployments (cmd/cowbird-app, cmd/cowbird-engine, cmd/cowbird-memnode):
// the JSON-over-TCP equivalent of RDMA connection management plus the §5.2
// Phase I Setup RPC ("the compute node will then send the switch
// configuration information through an RPC endpoint").
//
// Phase I across processes is written here once. The compute node
// orchestrates it (AddPeer, AllocRegion, Setup): it asks the memory pool to
// allocate a region and create a QP, asks the engine to set up an instance
// (which creates the engine-side QPs), and then connects its own QP and the
// pool's to the engine endpoints that come back. The pool serves
// MemnodeHandler; the engine serves ha.EngineControl. Every call goes
// through CallRetry, so the three processes may start in any order.
// Data-plane frames never touch this channel — they flow as RoCEv2 over the
// rdma.UDPBridge.
//
// The setup op carries one compute and one pool endpoint, which are one
// queue set's: an instance set up over it has exactly one queue (one client
// thread), and the engine refuses a setup for more. No caller runs more.
package ctl

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/telemetry"
	"cowbird/internal/wire"
)

// Conventional virtual addresses of the deployment roles. The UDP bridge
// maps them to real socket addresses. The standby engine (internal/ha) is a
// fourth role with its own identity, so the bridge can route frames to
// primary and standby independently.
var (
	ComputeMAC = wire.MAC{0x02, 0xC0, 0, 0, 0, 0x01}
	PoolMAC    = wire.MAC{0x02, 0xC0, 0, 0, 0, 0x02}
	EngineMAC  = wire.MAC{0x02, 0xC0, 0, 0, 0, 0x03}
	StandbyMAC = wire.MAC{0x02, 0xC0, 0, 0, 0, 0x04}
	ComputeIP  = wire.IPv4Addr{10, 0, 0, 1}
	PoolIP     = wire.IPv4Addr{10, 0, 0, 2}
	EngineIP   = wire.IPv4Addr{10, 0, 0, 3}
	StandbyIP  = wire.IPv4Addr{10, 0, 0, 4}
)

// QPEndpoint describes one side of a connection.
type QPEndpoint struct {
	QPN      uint32        `json:"qpn"`
	MAC      wire.MAC      `json:"mac"`
	IP       wire.IPv4Addr `json:"ip"`
	FirstPSN uint32        `json:"first_psn"`
}

// Request is the control-plane envelope.
type Request struct {
	Op string `json:"op"`

	// alloc_region
	RegionID uint16 `json:"region_id,omitempty"`
	Size     uint64 `json:"size,omitempty"`

	// create_qp / connect_qp
	FirstPSN uint32      `json:"first_psn,omitempty"`
	QPN      uint32      `json:"qpn,omitempty"`
	Remote   *QPEndpoint `json:"remote,omitempty"`

	// add_peer_addr: UDP data-plane address for Remote.MAC
	PeerAddr string `json:"peer_addr,omitempty"`

	// setup (engine)
	Instance *core.Instance `json:"instance,omitempty"`
	Compute  *QPEndpoint    `json:"compute,omitempty"`
	Pool     *QPEndpoint    `json:"pool,omitempty"`
}

// Response is the control-plane reply.
type Response struct {
	Err string `json:"err,omitempty"`

	// Fenced marks Err as a fencing demotion: the target was superseded by a
	// newer fencing epoch (split-brain protection; DESIGN.md §14). Call wraps
	// such responses in core.ErrFenced, and CallRetry treats them — like any
	// application-level error — as deterministic and non-retryable: retrying
	// against a deposed engine can never succeed and only delays the caller's
	// switch to the epoch holder.
	Fenced bool `json:"fenced,omitempty"`

	Region *core.RegionInfo `json:"region,omitempty"`
	QPN    uint32           `json:"qpn,omitempty"`

	// setup reply: the engine-side endpoints the hosts must connect to.
	EngineToCompute *QPEndpoint `json:"engine_to_compute,omitempty"`
	EngineToPool    *QPEndpoint `json:"engine_to_pool,omitempty"`

	// telemetry reply: a full metrics snapshot from the serving process.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Handler serves one control request.
type Handler func(Request) Response

// Serve accepts control connections on l and dispatches them to h, one
// request/response per connection. It returns when l is closed.
func Serve(l net.Listener, h Handler) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(10 * time.Second))
			var req Request
			if err := json.NewDecoder(c).Decode(&req); err != nil {
				_ = json.NewEncoder(c).Encode(Response{Err: "bad request: " + err.Error()})
				return
			}
			_ = json.NewEncoder(c).Encode(h(req))
		}(conn)
	}
}

// Call sends one request to a control endpoint and returns the response.
func Call(addr string, req Request) (Response, error) {
	return call(context.Background(), addr, req)
}

// call is one exchange, cut short when ctx ends or after 10 s.
func call(ctx context.Context, addr string, req Request) (Response, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return Response{}, fmt.Errorf("ctl: dial %s: %w", addr, err)
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return Response{}, fmt.Errorf("ctl: send to %s: %w", addr, err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("ctl: decode from %s: %w", addr, err)
	}
	if resp.Err != "" {
		if resp.Fenced {
			return resp, fmt.Errorf("ctl: %s: %s: %w", addr, resp.Err, core.ErrFenced)
		}
		return resp, fmt.Errorf("ctl: %s: %s", addr, resp.Err)
	}
	return resp, nil
}

// The one retry policy: 10 ms after the first failure, doubling to 2 s.
const (
	baseBackoff = 10 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// jitter picks a delay in [backoff/2, backoff], so peers that start dialing
// together do not retry in lockstep.
func jitter(backoff time.Duration) time.Duration {
	half := int64(backoff / 2)
	return time.Duration(half + rand.Int64N(half+1))
}

// CallRetry is Call with retries: 10 ms jittered backoff doubling to 2 s,
// bounded by ctx, which also cuts short the exchange in flight. A compute
// node starting Phase I dials endpoints that may still be starting up,
// where a single refused dial or connection reset would otherwise fail the
// whole setup. Transport errors are retried; an application-level error in
// the response (Response.Err) is deterministic and returned immediately. In
// particular a fencing demotion (Response.Fenced — errors.Is(err,
// core.ErrFenced)) fails fast on the first attempt: the target engine has
// been deposed by a newer epoch, and no amount of retrying resurrects it.
func CallRetry(ctx context.Context, addr string, req Request) (Response, error) {
	// One timer for the whole loop, stopped on return: under go 1.22 timer
	// semantics a time.After per attempt stays live until it fires, up to
	// maxBackoff after the caller gave up.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	backoff := baseBackoff
	for attempt := 1; ; attempt++ {
		resp, err := call(ctx, addr, req)
		if err == nil || resp.Err != "" {
			return resp, err
		}
		timer.Reset(jitter(backoff))
		backoff = min(2*backoff, maxBackoff)
		select {
		case <-ctx.Done():
			return Response{}, fmt.Errorf("ctl: %s unreachable after %d attempts (%v): %w", addr, attempt, ctx.Err(), err)
		case <-timer.C:
		}
	}
}
