package core

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"cowbird/internal/rings"
	"cowbird/internal/telemetry"
)

// TestPollWaitDeadlineOvershoot is the regression test for the sleep-phase
// deadline bug: the poll loop once consulted the clock only every 16
// iterations, which is fine while an iteration is a yield but is up to ~16
// sleep quanta (≥320 µs nominal, far more with timer slack) once the loop
// sleeps. The thread's waiter reads the clock on every cold round and never
// blocks within pace.Slack of the deadline, so a 100 µs PollWait overshoots
// by scheduler slop alone (internal/pace tests the ladder itself).
func TestPollWaitDeadlineOvershoot(t *testing.T) {
	c, _ := newTestClient(t, 1, smallLayout())
	th, _ := c.Thread(0)
	g := th.PollCreate()
	id, err := th.AsyncRead(0, 0, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(id); err != nil {
		t.Fatal(err)
	}

	const timeout = 100 * time.Microsecond
	const trials = 32
	overshoots := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		done, _ := g.WaitErr(1, timeout) // never completes: no engine steps
		if len(done) != 0 {
			t.Fatalf("phantom completion %v", done)
		}
		overshoots = append(overshoots, time.Since(start)-timeout)
	}
	sort.Slice(overshoots, func(i, j int) bool { return overshoots[i] < overshoots[j] })
	median := overshoots[trials/2]
	// Pre-fix, the first sleep-phase deadline check lands only after ~15
	// unchecked 20 µs sleeps, so the median overshoot is ≥200 µs by
	// arithmetic alone and typically far larger. Post-fix it is one capped
	// sleep plus OS slop. The median (not max) keeps a single preempted
	// trial on a loaded CI box from flaking the test.
	if limit := 250 * time.Microsecond; median > limit {
		t.Fatalf("median PollWait overshoot %v exceeds %v (all: %v)", median, limit, overshoots)
	}
}

// TestMakeReqIDWrapPanics constructs the 48-bit sequence wrap directly:
// MakeReqID must refuse to truncate rather than mint an ID that aliases an
// old request.
func TestMakeReqIDWrapPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MakeReqID accepted a sequence beyond 48 bits")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "overflows") {
			t.Fatalf("panic message unhelpful: %v", r)
		}
	}()
	MakeReqID(rings.OpRead, 0, MaxSeq+1)
}

// TestMakeReqIDQueueOverflowPanics: a queue index past the 14-bit field
// would land on bit 62 — the local-hit bit — turning an ordinary read ID
// into one that poll groups complete instantly with an unread buffer. Both
// constructors must refuse.
func TestMakeReqIDQueueOverflowPanics(t *testing.T) {
	for _, q := range []int{-1, reqIDQueueMax, reqIDQueueMax + 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MakeReqID accepted queue %d", q)
				}
			}()
			MakeReqID(rings.OpRead, q, 1)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MakeLocalHitID accepted queue %d", q)
				}
			}()
			MakeLocalHitID(q, 1)
		}()
	}
	// The boundary itself is fine: the largest representable index round-trips.
	if id := MakeReqID(rings.OpRead, reqIDQueueMax-1, 1); id.Queue() != reqIDQueueMax-1 || id.LocalHit() {
		t.Fatalf("max queue index mangled: %v", id)
	}
}

// TestSeqExhaustionFailsClosed drives AsyncRead/AsyncWrite to the edge of
// the sequence space (by setting the counters directly — 2^48 real issues
// would outlive the test suite) and checks that the issue paths return
// ErrSeqExhausted without mutating any ring or pending state.
func TestSeqExhaustionFailsClosed(t *testing.T) {
	c, _ := newTestClient(t, 1, smallLayout())
	th, _ := c.Thread(0)

	th.readSeq = MaxSeq
	if _, err := th.AsyncRead(0, 0, make([]byte, 8)); !errors.Is(err, ErrSeqExhausted) {
		t.Fatalf("AsyncRead at seq limit: err = %v, want ErrSeqExhausted", err)
	}
	if th.pendingReads.Len() != 0 {
		t.Fatal("exhausted read still queued pending state")
	}
	if th.readSeq != MaxSeq {
		t.Fatal("exhausted read advanced the sequence")
	}

	th.writeSeq = MaxSeq
	if _, err := th.AsyncWrite(0, []byte("x"), 0); !errors.Is(err, ErrSeqExhausted) {
		t.Fatalf("AsyncWrite at seq limit: err = %v, want ErrSeqExhausted", err)
	}
	if th.pendingWrites.Len() != 0 {
		t.Fatal("exhausted write still queued pending state")
	}

	// One short of the limit is still issuable: the check is exact.
	th2 := &Thread{c: c, idx: 0, qs: th.qs, mr: th.mr}
	th2.readSeq = MaxSeq - 1
	if _, err := th2.AsyncRead(0, 0, make([]byte, 8)); err != nil {
		t.Fatalf("read one short of the limit refused: %v", err)
	}
}

// TestClientTelemetryCounts wires a telemetry hub with SampleEvery=1 into a
// client and checks the exact counters and the sampled stage/e2e histograms
// against a known workload served by the fake engine.
func TestClientTelemetryCounts(t *testing.T) {
	hub := telemetry.New(telemetry.Config{SampleEvery: 1})
	c, eng := newTestClient(t, 1, smallLayout())
	c.tel = hub
	th, _ := c.Thread(0)

	const reads, writes = 5, 3
	data := []byte("telemetry payload")
	for i := 0; i < writes; i++ {
		id, err := th.AsyncWrite(0, data, uint64(i)*64)
		if err != nil {
			t.Fatal(err)
		}
		eng.step(th.QueueSet())
		if !th.WaitAll([]ReqID{id}, time.Second) {
			t.Fatal("write did not complete")
		}
	}
	dest := make([]byte, len(data))
	for i := 0; i < reads; i++ {
		id, err := th.AsyncRead(0, uint64(i%writes)*64, dest)
		if err != nil {
			t.Fatal(err)
		}
		eng.step(th.QueueSet())
		if !th.WaitAll([]ReqID{id}, time.Second) {
			t.Fatal("read did not complete")
		}
	}

	if got := hub.ReadsIssued.Value(); got != reads {
		t.Fatalf("ReadsIssued = %d, want %d", got, reads)
	}
	if got := hub.WritesIssued.Value(); got != writes {
		t.Fatalf("WritesIssued = %d, want %d", got, writes)
	}
	if got := hub.ReadsHarvested.Value(); got != reads {
		t.Fatalf("ReadsHarvested = %d, want %d", got, reads)
	}
	if got := hub.WritesHarvested.Value(); got != writes {
		t.Fatalf("WritesHarvested = %d, want %d", got, writes)
	}
	// Every request was sampled (1-in-1, one at a time in flight), so the
	// stage and end-to-end histograms saw all of them.
	if got := hub.StageIssue.Count(); got != reads+writes {
		t.Fatalf("StageIssue count = %d, want %d", got, reads+writes)
	}
	if got := hub.EndToEndReads.Count(); got != reads {
		t.Fatalf("EndToEndReads count = %d, want %d", got, reads)
	}
	if got := hub.EndToEndWrites.Count(); got != writes {
		t.Fatalf("EndToEndWrites count = %d, want %d", got, writes)
	}
}

// TestClientTelemetryNilIsInert makes sure the disabled path truly is the
// seed behaviour: no counters, no sampling state, no panics.
func TestClientTelemetryNilIsInert(t *testing.T) {
	c, eng := newTestClient(t, 1, smallLayout())
	th, _ := c.Thread(0)
	id, err := th.AsyncWrite(0, []byte("no telemetry"), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.step(th.QueueSet())
	if !th.WaitAll([]ReqID{id}, time.Second) {
		t.Fatal("write did not complete")
	}
	if th.sampleActive || th.issueCount != 0 {
		t.Fatal("telemetry state touched with nil hub")
	}
}
