package ha

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
)

// TestFailoverExactlyOnceProperty is the tentpole property test: preempt
// the active engine at a randomized point in its RDMA post stream — every
// protocol phase (probe, metadata fetch, payload fetch, pool write,
// response batch, bookkeeping write, heartbeat) is a post, so the kill can
// land between any two protocol messages, including mid-round after pool
// writes executed but before their completions published, and mid-batch
// while conflicting reads are held behind an in-flight write — and prove
// that after standby takeover every issued request completes exactly once:
// no completion lost, no completion duplicated, no data torn, and per-type
// ordering (§4.2) preserved across the failover boundary.
func TestFailoverExactlyOnceProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailoverScenario(t, seed)
		})
	}
}

func runFailoverScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ecfg, mcfg := testTimings()
	r := buildRig(t, ecfg, mcfg, true)
	// Arm the kill anywhere in the workload's post stream. Small values die
	// before serving anything; large values may outlive the workload (the
	// no-failover and idle-failover paths are exercised below either way).
	r.primary.PreemptAfter(rng.Int63n(150))
	r.primary.Run()
	r.monitor.Start()
	t.Cleanup(r.monitor.Stop)

	th, err := r.client.Thread(0)
	if err != nil {
		t.Fatal(err)
	}

	const n = 25
	const hotAddr = 4096 // all traffic targets one address: maximal conflicts
	const reqLen = 64

	// reads[v] is what the read issued right after the write of value v
	// returned.
	reads := make([][]byte, n+2)
	deadline := time.Now().Add(60 * time.Second)
	// pairs writes values first..last to the hot address, each immediately
	// read back, all of them in flight at once. The overlapping read forces
	// the engine's conflict split, so the read is held while the write is in
	// flight — preemption inside that window is exactly the "mid-write with
	// paused reads" case. The driver fails a completion delivered twice or
	// for no request, and a run that stalls; Done fails one past the deadline.
	pairs := func(first, last int) {
		ops := 2 * (last - first + 1)
		l := &driver.Loop{
			Thread: th, Who: "failover workload", Window: ops, Ops: ops, DestBytes: reqLen, Stall: max(time.Until(deadline), time.Millisecond),
			Issue: func(i int, dest []byte) (core.ReqID, error) {
				if v := first + i/2; i%2 == 0 {
					return th.AsyncWrite(0, bytes.Repeat([]byte{byte(v)}, reqLen), hotAddr)
				}
				return th.AsyncRead(0, hotAddr, dest)
			},
			Done: func(i int, dest []byte) error {
				if time.Now().After(deadline) {
					return fmt.Errorf("op %d of values %d..%d done past the deadline", i, first, last)
				}
				if i%2 == 1 {
					reads[first+i/2] = bytes.Clone(dest)
				}
				return nil
			},
			Idle: func(int) { time.Sleep(20 * time.Microsecond) },
		}
		if err := l.Run(nil); err != nil {
			t.Fatalf("%v (primary preempted=%v, standby promoted=%v)", err, r.primary.Preempted(), r.standby.Promoted())
		}
	}
	pairs(1, n)

	// If the injected kill never fired, the whole run completed on the
	// primary; force the revocation now and prove takeover from idle.
	last := n
	if !r.primary.Preempted() {
		r.primary.Preempt()
		last = n + 1
		pairs(last, last)
	}

	// Every failover path ends promoted: the kill either fired mid-workload
	// or was forced above.
	if !r.standby.Promoted() {
		t.Fatal("standby never promoted despite preemption")
	}
	if r.monitor.Deaths() == 0 {
		t.Fatal("monitor never observed the preemption")
	}

	// Per-type ordering across the failover boundary: reads complete in
	// issue order, the hot address's value only grows, and a replayed read
	// may legally observe a later (unpublished-at-death) write but never an
	// earlier one. So in issue order: untorn data, value ≥ the write issued
	// just before the read, values nondecreasing.
	prev := 0
	for floor := 1; floor <= last; floor++ {
		b := reads[floor]
		v := int(b[0])
		for _, x := range b {
			if int(x) != v {
				t.Fatalf("torn read: %v", b[:8])
			}
		}
		if v < floor || v > last {
			t.Fatalf("read issued after write %d observed value %d (max %d): read-after-write broken across failover",
				floor, v, last)
		}
		if v < prev {
			t.Fatalf("per-type read ordering violated: value %d observed after %d", v, prev)
		}
		prev = v
	}

	// The pool must hold the last write exactly — replayed writes are
	// idempotent, so even re-executed ones converge to this.
	got, err := r.pool.Peek(0, hotAddr, reqLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range got {
		if x != byte(last) {
			t.Fatalf("pool state after failover: got %d, want %d", x, last)
		}
	}
}
