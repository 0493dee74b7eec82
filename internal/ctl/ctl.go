// Package ctl is the out-of-band control plane for multi-process Cowbird
// deployments (cmd/cowbird-app, cmd/cowbird-engine, cmd/cowbird-memnode):
// the JSON-over-TCP equivalent of RDMA connection management plus the §5.2
// Phase I Setup RPC ("the compute node will then send the switch
// configuration information through an RPC endpoint").
//
// The compute node orchestrates: it asks the memory pool to allocate
// regions and create a QP, asks the engine to set up an instance (which
// creates the engine-side QPs), and then tells each side which remote QP to
// connect to. Data-plane frames never touch this channel — they flow as
// RoCEv2 over the rdma.UDPBridge.
//
// The setup op carries one compute and one pool endpoint, which are one
// queue set's: an instance set up over it has exactly one queue (one client
// thread), and the engine refuses a setup for more.
package ctl

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
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
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return Response{}, fmt.Errorf("ctl: dial %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
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

// RetryPolicy bounds and seeds a CallRetry loop.
type RetryPolicy struct {
	// MaxAttempts caps the number of Call attempts; 0 means unbounded —
	// only the context ends the loop.
	MaxAttempts int
	// BaseBackoff is the delay after the first failure; it doubles per
	// attempt up to MaxBackoff. Zero values take the defaults (10ms, 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Source drives the backoff jitter. Passing a seeded source makes the
	// retry timing replayable — chaos schedules and the deterministic
	// takeover tests depend on that. Nil derives a per-call generator from
	// an internal lock-free seed sequence.
	//
	// rand.Source is not safe for concurrent use, so CallRetryPolicy never
	// draws jitter from it directly: it takes ONE seed value from the
	// Source (under a package-level mutex, so one policy value may be
	// shared across every tenant client of a fan-out) and drives the
	// call's backoff loop from a private generator derived from that seed.
	Source rand.Source
}

// DefaultRetryPolicy is the policy CallRetry uses: unbounded attempts,
// 10ms→2s backoff, globally-seeded jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 2 * time.Second}
}

// jitter picks a delay in [backoff/2, backoff] — full jitter decorrelates
// takeover stampedes where every standby re-provisions at once. rng is the
// call-private generator built by callRNG; it is never shared, so the draw
// is race-free and lock-free.
func jitter(rng *rand.Rand, backoff time.Duration) time.Duration {
	half := int64(backoff / 2)
	return time.Duration(half + rng.Int63n(half+1))
}

// seedMu serializes seed draws from caller-supplied jitter Sources: one
// RetryPolicy value is routinely shared across every tenant client of a
// fan-out, and rand.Source is not concurrency-safe. Only the single Int63
// per CallRetryPolicy call runs under it — the backoff loop's draws come
// from the derived private generator, so fan-out backoff never serializes
// here (or on the lock inside the global math/rand generator, which the old
// nil-Source fallback paid on every attempt).
var seedMu sync.Mutex

// seedCtr feeds the nil-Source seed sequence; splitmix64 whitens it.
var seedCtr atomic.Uint64

// callRNG builds the call-private jitter generator for one CallRetryPolicy
// invocation: one seed draw from the shared Source (serialized), or a
// lock-free splitmix64 step when the policy has none. Determinism for
// seeded policies is preserved at the call level — the n-th call on a
// policy sees the n-th seed of its Source — without ever letting two
// goroutines step the same generator.
func callRNG(p RetryPolicy) *rand.Rand {
	if p.Source != nil {
		seedMu.Lock()
		seed := p.Source.Int63()
		seedMu.Unlock()
		return rand.New(rand.NewSource(seed))
	}
	x := seedCtr.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// CallRetry is Call with retries under DefaultRetryPolicy, bounded by ctx.
// Takeover re-provisioning (internal/ha) dials endpoints that may still be
// starting up, where a single dropped dial or connection reset would
// otherwise fail the whole Phase I setup. Transport errors are retried; an
// application-level error in the response (Response.Err) is deterministic
// and returned immediately. In particular a fencing demotion
// (Response.Fenced — errors.Is(err, core.ErrFenced)) fails fast on the
// first attempt: the target engine has been deposed by a newer epoch, and
// no amount of retrying resurrects it.
func CallRetry(ctx context.Context, addr string, req Request) (Response, error) {
	return CallRetryPolicy(ctx, addr, req, DefaultRetryPolicy())
}

// CallRetryPolicy is CallRetry with an explicit attempt budget, backoff
// shape, and jitter source.
func CallRetryPolicy(ctx context.Context, addr string, req Request, p RetryPolicy) (Response, error) {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	rng := callRNG(p)
	backoff := p.BaseBackoff
	for attempt := 1; ; attempt++ {
		resp, err := Call(addr, req)
		if err == nil || resp.Err != "" {
			return resp, err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return Response{}, fmt.Errorf("ctl: %s unreachable after %d attempts (budget exhausted): %w", addr, attempt, err)
		}
		d := jitter(rng, backoff)
		if backoff < p.MaxBackoff {
			backoff *= 2
		}
		select {
		case <-ctx.Done():
			return Response{}, fmt.Errorf("ctl: %s unreachable after %d attempts (%v): %w", addr, attempt, ctx.Err(), err)
		case <-time.After(d):
		}
	}
}
