package spot

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// The serve round's shape is gated in counts — completion waits, response
// writes, entries executed — on an engine that is never Run: rounds execute
// on the test goroutine over the control shard, so each count belongs to
// exactly one round.

// handRound is one single-queue deployment whose rounds the test drives.
type handRound struct {
	t       *testing.T
	eng     *Engine
	inst    *instance
	q       *queueState
	th      *core.Thread
	pool    *memnode.Node
	compute *rdma.NIC
	fabric  *rdma.Fabric
}

func newHandRound(t *testing.T, lay rings.Layout) *handRound {
	t.Helper()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 0x41}, wire.IPv4Addr{10, 7, 0, 0x41}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	eng := New(engNIC, DefaultConfig())
	t.Cleanup(eng.Stop) // the control goroutine runs from New even without Run
	client, pool, compute := wireInstanceNIC(t, f, eng, 0, 1, lay)
	inst := eng.insts.Load().instances[0]
	th, _ := client.Thread(0)
	return &handRound{t: t, eng: eng, inst: inst, q: inst.queues[0], th: th, pool: pool, compute: compute, fabric: f}
}

// pattern is the byte every pool offset is preloaded with.
func pattern(off uint64) byte { return byte(off/64*7 + 3) }

func (h *handRound) preload(n int) {
	h.t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = pattern(uint64(i))
	}
	if err := h.pool.Poke(0, 0, data); err != nil {
		h.t.Fatal(err)
	}
}

// read issues a 64 B read of pool offset off and returns a check to run once
// the round has served it.
func (h *handRound) read(off uint64) func() {
	h.t.Helper()
	dest := make([]byte, 64)
	id, err := h.th.AsyncRead(0, off, dest)
	if err != nil {
		h.t.Fatal(err)
	}
	return func() {
		h.t.Helper()
		if !h.th.Completed(id) {
			h.t.Fatalf("read of %d not completed by its round", off)
		}
		if want := bytes.Repeat([]byte{pattern(off)}, 64); !bytes.Equal(dest, want) {
			h.t.Fatalf("read of %d returned %#x.., want %#x..", off, dest[0], want[0])
		}
	}
}

// write issues a 64 B write of fill to pool offset off (outside the
// preloaded pattern the reads check).
func (h *handRound) write(off uint64, fill byte) func() {
	h.t.Helper()
	id, err := h.th.AsyncWrite(0, bytes.Repeat([]byte{fill}, 64), off)
	if err != nil {
		h.t.Fatal(err)
	}
	return func() {
		h.t.Helper()
		if !h.th.Completed(id) {
			h.t.Fatalf("write to %d not completed by its round", off)
		}
		if got, err := h.pool.Peek(0, off, 64); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{fill}, 64)) {
			h.t.Fatalf("write to %d: pool holds %#x.. (err %v), want %#x..", off, got[0], err, fill)
		}
	}
}

// round serves the queue once over its own QPs and returns the entries
// served and the completion waits the round blocked in.
func (h *handRound) round() (served, waits int, err error) {
	w0 := h.eng.ctl.waitCount()
	served, err = h.eng.serveQueue(h.eng.ctl, h.inst, h.q, maxEntriesPerRound)
	return served, h.eng.ctl.waitCount() - w0, err
}

// mustRound is round with the outcome checked.
func (h *handRound) mustRound(what string, wantServed, wantWaits int, checks ...func()) {
	h.t.Helper()
	served, waits, err := h.round()
	if err != nil || served != wantServed {
		h.t.Fatalf("%s: served %d (err %v), want %d", what, served, err, wantServed)
	}
	if waits != wantWaits {
		h.t.Fatalf("%s: %d completion waits, want %d", what, waits, wantWaits)
	}
	for _, check := range checks {
		check()
	}
}

// TestRoundWaits counts the completion waits of every shape of round.
func TestRoundWaits(t *testing.T) {
	const metaEntries = 16
	h := newHandRound(t, rings.Layout{MetaEntries: metaEntries, ReqDataBytes: 8 << 10, RespDataBytes: 8 << 10})
	h.preload(64 << 10)
	reads := func(n int) (checks []func()) {
		for i := 0; i < n; i++ {
			checks = append(checks, h.read(uint64(i)*64))
		}
		return checks
	}

	// A queue nobody has probed yet gets no speculation: probe, fetch, pool
	// reads, responses+red.
	h.mustRound("first round", 4, 4, reads(4)...)
	// The last probe found work, so the fetch rides behind the probe.
	h.mustRound("read-only round", 4, 3, reads(4)...)
	// Writes put one wait between the pool writes and the red write.
	mixed := append(reads(2), h.write(1<<19, 0xC1), h.write(1<<19+64, 0xC2))
	h.mustRound("mixed round", 4, 4, mixed...)
	// An empty probe is one wait, and the guess it wasted is not repeated.
	h.mustRound("empty probe", 0, 1)
	h.mustRound("round after an empty probe", 4, 4, reads(4)...)

	// A backlog that straddles the ring's wrap: the guess stops at the wrap
	// and the remainder is fetched once the tail is known — as is whatever a
	// backlog holds beyond the guess, on the way there.
	head := int(h.q.red.MetaHead % metaEntries)
	toWrap := 3
	n := (metaEntries - toWrap - head + metaEntries) % metaEntries
	h.mustRound("approach the wrap (a backlog beyond the guess of 4)", n, 4, reads(n)...)
	if head = int(h.q.red.MetaHead % metaEntries); head != metaEntries-toWrap || h.q.lastFound <= toWrap {
		t.Fatalf("test geometry broken: head slot %d, last probe found %d", head, h.q.lastFound)
	}
	h.mustRound("wrap-straddling round", 6, 4, reads(6)...)
}

// TestResponseRunSpansWrites: R W R R W R in one round leaves as one response
// WRITE — reads are staged back to back whatever sits between them.
func TestResponseRunSpansWrites(t *testing.T) {
	h := newHandRound(t, rings.Layout{MetaEntries: 64, ReqDataBytes: 8 << 10, RespDataBytes: 8 << 10})
	h.preload(4 << 10)
	checks := []func(){
		h.read(0), h.write(1<<19, 0xD1), h.read(64), h.read(640), h.write(1<<19+4096, 0xD2), h.read(128),
	}
	before := h.eng.Stats()
	h.mustRound("R W R R W R (unprobed queue: a wait for the separate fetch)", 6, 5, checks...)
	st := h.eng.Stats()
	if got := st.ResponseBatches - before.ResponseBatches; got != 1 {
		t.Fatalf("%d response writes for four reads interleaved with writes, want 1", got)
	}
	if st.ReadsExecuted-before.ReadsExecuted != 4 || st.WritesExecuted-before.WritesExecuted != 2 || st.ConflictStalls != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRedCommitOnlyAfterCQE fails the red write of a mixed batch — every
// frame carrying it is lost until the compute QP gives up. The batch must not
// have committed anywhere: the engine's copy of the red block and the durable
// one are where they were, the client saw nothing complete, and the same
// batch replays over a fresh compute QP, advancing every counter exactly once
// (request-data space freed twice would push ReqDataHead past the client's
// tail).
func TestRedCommitOnlyAfterCQE(t *testing.T) {
	h := newHandRound(t, rings.Layout{MetaEntries: 64, ReqDataBytes: 8 << 10, RespDataBytes: 8 << 10})
	h.preload(4 << 10)
	// One served round first, so the counters under test are not all zero.
	h.mustRound("warm-up", 2, 5, h.read(0), h.write(1<<19, 0xE0))

	compute := h.q.conn.computeQP
	compute.SetRetryPolicy(200*time.Microsecond, 3)
	redVA := h.q.qi.BaseVA + uint64(h.q.qi.Layout.RedOffset())
	var dec wire.Packet
	h.fabric.SetLossFn(func(frame []byte) bool {
		return dec.DecodeFromBytes(frame) == nil && dec.BTH.OpCode == wire.OpWriteOnly && dec.RETH.VA == redVA
	})
	checks := []func(){h.write(1<<19+64, 0xE1), h.read(64), h.write(1<<19+128, 0xE2)}
	engineRed, durableRed := h.q.red, h.th.QueueSet().Red()
	if engineRed != durableRed {
		t.Fatalf("engine red %+v differs from durable red %+v before the test", engineRed, durableRed)
	}

	served, _, err := h.round()
	var wf *wrFailure
	if !errors.As(err, &wf) || wf.st != rdma.StatusRetryExceeded || served != 0 {
		t.Fatalf("round with a lost red write: served %d, err %v; want RETRY_EXCEEDED", served, err)
	}
	if h.q.red != engineRed {
		t.Fatalf("engine red advanced to %+v by a red write that never completed (was %+v)", h.q.red, engineRed)
	}
	if got := h.th.QueueSet().Red(); got != durableRed {
		t.Fatalf("durable red moved to %+v (was %+v)", got, durableRed)
	}
	if w, r := h.th.Drain(); w != durableRed.WriteProgress || r != durableRed.ReadProgress {
		t.Fatalf("client saw progress (%d writes, %d reads) from an unpublished batch", w, r)
	}

	// Replay over a fresh compute QP (the old one is in the error state for
	// good), as a re-registered slot or an adopting standby would.
	h.fabric.SetLossFn(nil)
	h.q.conn.computeQP, _ = rdma.ConnectPair(h.eng.NIC(), h.q.conn.cq, 50_000, h.compute, 60_000)
	served, _, err = h.round()
	if err != nil || served != 3 {
		t.Fatalf("replay: served %d, err %v", served, err)
	}
	for _, check := range checks {
		check()
	}
	want := engineRed
	want.MetaHead += 3
	want.WriteProgress += 2
	want.ReadProgress++
	want.Heartbeat++
	want.ReqDataHead = h.th.QueueSet().Green().ReqDataTail
	if h.q.red != want {
		t.Fatalf("after the replay the engine red is %+v, want %+v", h.q.red, want)
	}
	if got := h.th.QueueSet().Red(); got != want {
		t.Fatalf("after the replay the durable red is %+v, want %+v", got, want)
	}
}

// TestSpeculativeFetchUnderLoss runs a live engine against a client that
// keeps appending entries while READ responses from its node — green blocks,
// metadata, write payloads — are dropped at random. The fused probe must
// never apply a tail to a metadata snapshot older than it: the metadata ring
// is small and never zeroed, so an entry beyond the tail decodes as a valid
// request of a previous lap, and executing it shows up as an old write
// landing over a new one, a read answered before its data, or more entries
// served than were issued.
func TestSpeculativeFetchUnderLoss(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { speculativeFetchUnderLoss(t, int64(seed)) })
	}
}

func speculativeFetchUnderLoss(t *testing.T, seed int64) {
	const (
		metaEntries = 16
		window      = 8
		total       = 240
		slots       = 8 // distinct 64 B write targets, each overwritten many times
		writeBase   = 1 << 19
	)
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 0x42}, wire.IPv4Addr{10, 7, 0, 0x42}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	eng := New(engNIC, DefaultConfig())
	t.Cleanup(eng.Stop)
	lay := rings.Layout{MetaEntries: metaEntries, ReqDataBytes: 8 << 10, RespDataBytes: 8 << 10}
	client, pool, compute := wireInstanceNIC(t, f, eng, 0, 1, lay)
	inst := eng.insts.Load().instances[0]
	inst.queues[0].conn.computeQP.SetRetryPolicy(300*time.Microsecond, 1000)
	th, _ := client.Thread(0)
	preload := make([]byte, 4<<10)
	for i := range preload {
		preload[i] = pattern(uint64(i))
	}
	if err := pool.Poke(0, 0, preload); err != nil {
		t.Fatal(err)
	}

	computeMAC := compute.MAC()
	rng := rand.New(rand.NewSource(seed))
	var dec wire.Packet
	var dropped atomic.Int64
	f.SetLossFn(func(frame []byte) bool {
		if dec.DecodeFromBytes(frame) != nil || dec.Eth.Src != computeMAC || !dec.BTH.OpCode.IsReadResponse() {
			return false
		}
		if rng.Intn(100) < 15 {
			dropped.Add(1)
			return true
		}
		return false
	})
	eng.Run()

	// The shadow model: the version last written to each slot, and the
	// offset of every read (reads only touch the preloaded, never-written
	// pattern). Any issue error fails the run, a full ring included (%v,
	// not %w, so the driver does not retry it).
	var version [slots]byte
	readOff := make(map[int]uint64)
	ops := rand.New(rand.NewSource(seed ^ 0x5eed))
	deadline := time.Now().Add(60 * time.Second)
	l := &driver.Loop{
		Thread: th, Who: "closed loop", Window: window, Ops: total, DestBytes: 64, Stall: 60 * time.Second,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			var id core.ReqID
			var err error
			if ops.Intn(4) == 0 {
				slot := ops.Intn(slots)
				version[slot]++
				id, err = th.AsyncWrite(0, bytes.Repeat([]byte{version[slot]}, 64), writeBase+uint64(slot)*64)
			} else {
				readOff[i] = uint64(ops.Intn(len(preload)/64)) * 64
				id, err = th.AsyncRead(0, readOff[i], dest)
			}
			if err != nil {
				return 0, fmt.Errorf("issue %d: %v", i, err)
			}
			return id, nil
		},
		Done: func(i int, dest []byte) error {
			if err := pastDeadline(deadline, i); err != nil {
				return err
			}
			off, ok := readOff[i]
			if ok && !bytes.Equal(dest, bytes.Repeat([]byte{pattern(off)}, 64)) {
				return fmt.Errorf("op %d: read of %d returned %#x.., want %#x..", i, off, dest[0], pattern(off))
			}
			return nil
		},
		Idle: func(int) { time.Sleep(5 * time.Microsecond) },
	}
	if err := l.Run(nil); err != nil {
		t.Fatalf("%v: %+v", err, eng.Stats())
	}
	eng.Stop()
	f.SetLossFn(nil)
	if st := eng.Stats(); st.EntriesServed != total {
		t.Fatalf("%d entries served for %d issued: an entry beyond the tail executed", st.EntriesServed, total)
	}
	if red, green := th.QueueSet().Red(), th.QueueSet().Green(); red.MetaHead != green.MetaTail || red.ReqDataHead != green.ReqDataTail {
		t.Fatalf("red %+v ran past or short of green %+v", red, green)
	}
	for slot, v := range version {
		got, err := pool.Peek(0, writeBase+uint64(slot)*64, 64)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{v}, 64)) {
			t.Fatalf("slot %d holds version %d (err %v), want %d: an old write replayed over a newer one", slot, got[0], err, v)
		}
	}
	if dropped.Load() == 0 {
		t.Fatal("loss injector never fired; test is vacuous")
	}
}
