//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package system

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/synctest"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
	"cowbird/internal/wire"
)

// The loss-recovery exhibit (EXPERIMENTS.md, "Loss recovery on the bubble
// clock"): what frame loss costs a closed loop of reads on each engine, read
// off the live Go-Back-N code — the QP retransmission timer on spot, the
// switch's per-queue progress register and drain on P4 — rather than a model
// of it. Each run sits in a synctest bubble, so the fabric latency, the
// retransmission timers and the engines' idle waits all run on virtual time.
// Run it with
//
//	GOEXPERIMENT=synctest go test -run TestLossRecoveryExhibit -v ./internal/system/
//
// The closed loop is internal/driver's, whose package comment has the
// bubble's pitfalls; it sleeps on an empty poll.

const (
	// lossLatency is the fabric's one-way propagation latency: a 4 µs round
	// trip.
	lossLatency = 2 * time.Microsecond
	// lossPoll is the driver's sleep on an empty poll.
	lossPoll = 500 * time.Nanosecond
	// lossOps reads of lossSize bytes over lossBlocks blocks, lossWindow at
	// a time.
	lossOps, lossSize, lossBlocks, lossWindow = 2000, 64, 1024, 16
)

// lossRow is one run, read off the bubble clock and the counters.
type lossRow struct {
	elapsed    time.Duration // virtual time for lossOps reads
	frames     int64         // frames put on the fabric, the lost ones included
	recoveries int64         // spot: send-queue replays; P4: drains
}

func (r lossRow) String() string {
	return fmt.Sprintf("%v, %.3f frames/op, %.4f recoveries/op", r.elapsed,
		float64(r.frames)/lossOps, float64(r.recoveries)/lossOps)
}

// matches reports whether r repeats want exactly: the same frames,
// recoveries and virtual time. Every delayed frame waits on the fabric's one
// delay line, whose one goroutine delivers in forwarding order, so a tick
// and a delivery due at one instant meet in run-queue order, which repeats.
func (r lossRow) matches(want lossRow) bool { return r == want }

type lossResult struct {
	row lossRow
	err error
}

// runLossBubble runs runLoss in a fresh bubble.
func runLossBubble(c lossCase) (lossRow, error) {
	// The result leaves the bubble on a channel made outside it: the race
	// detector sees no edge from the bubble's end to Run's return.
	out := make(chan lossResult, 1)
	synctest.Run(func() {
		row, err := runLoss(c)
		out <- lossResult{row, err}
	})
	res := <-out
	return res.row, res.err
}

// runLoss runs lossOps reads through thread 0 of a System with c.threads
// queue sets, whose fabric drops c.pct % of frames (lossFn), and checks every
// read's bytes. Any other thread stays idle: its queue only answers probes.
func runLoss(c lossCase) (lossRow, error) {
	cfg := DefaultConfig()
	cfg.Engine = c.engine
	cfg.Threads = c.threads
	s, err := New(cfg)
	if err != nil {
		return lossRow{}, err
	}
	defer s.Close()
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, lossSize/2) }
	for i := 0; i < lossBlocks; i++ {
		if err := s.Pool.Poke(0, uint64(i)*lossSize, block(i)); err != nil {
			return lossRow{}, err
		}
	}
	s.Fabric.SetLatency(lossLatency)
	s.Fabric.SetLossFn(lossFn(c.pct, c.seed))

	th, err := s.Client.Thread(0)
	if err != nil {
		return lossRow{}, err
	}
	start := time.Now()
	deadline := start.Add(time.Minute)
	l := &driver.Loop{
		Thread: th, Who: "loss exhibit", Window: lossWindow, Ops: lossOps, DestBytes: lossSize, Stall: time.Minute,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			return th.AsyncRead(0, uint64(i%lossBlocks)*lossSize, dest)
		},
		Done: func(i int, dest []byte) error {
			if want := block(i % lossBlocks); !bytes.Equal(dest, want) {
				return fmt.Errorf("read of block %d returned % x, want % x", i%lossBlocks, dest[:8], want[:8])
			}
			return pastDeadline(deadline, i)
		},
		Idle: func(int) { time.Sleep(lossPoll) },
	}
	if err := l.Run(nil); err != nil {
		return lossRow{}, err
	}
	row := lossRow{elapsed: time.Since(start)}
	fs := s.Fabric.Stats()
	row.frames = fs.Frames + fs.Dropped
	if s.Spot != nil {
		row.recoveries = s.Spot.NIC().Stats().Replays
	} else {
		row.recoveries = s.P4.Stats().Recoveries
	}
	return row, nil
}

// lossFn drops pct % of frames. Each frame's coin is drawn from its
// identity — sender, BTH opcode, destination QP and PSN, and how often that
// identity has been sent before — rather than from one generator in
// forwarding order: goroutines that send at one virtual instant reach the
// forwarding lock in the host scheduler's order, and a shared generator
// would hand their coins out in that order. The predicate runs one frame at a
// time under the forwarding lock, so its map needs no lock.
func lossFn(pct int, seed int64) func([]byte) bool {
	const bth = wire.EthernetLen + wire.IPv4Len + wire.UDPLen
	sent := make(map[string]int)
	return func(fr []byte) bool {
		if len(fr) < bth+wire.BTHLen {
			return false
		}
		id := string(fr[6:12]) + string(fr[bth:bth+wire.BTHLen])
		n := sent[id]
		sent[id] = n + 1
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d/%s", seed, n, id)
		return h.Sum64()%100 < uint64(pct)
	}
}

// lossCase names one row of the exhibit.
type lossCase struct {
	engine  EngineKind
	threads int
	pct     int
	seed    int64
}

// lossSpot is every spot row. On one P without the race detector a
// one-queue spot System repeats to the frame and to the nanosecond
// (matches).
var lossSpot = map[lossCase]lossRow{
	{EngineSpot, 1, 0, 1}:  {1522500 * time.Nanosecond, 5000, 0},
	{EngineSpot, 1, 0, 2}:  {1522500 * time.Nanosecond, 5000, 0},
	{EngineSpot, 1, 1, 1}:  {2602500 * time.Nanosecond, 9012, 178},
	{EngineSpot, 1, 1, 2}:  {2634500 * time.Nanosecond, 10552, 231},
	{EngineSpot, 1, 2, 1}:  {3570500 * time.Nanosecond, 15903, 464},
	{EngineSpot, 1, 2, 2}:  {4298500 * time.Nanosecond, 13009, 365},
	{EngineSpot, 1, 5, 1}:  {5822500 * time.Nanosecond, 26516, 920},
	{EngineSpot, 1, 5, 2}:  {6882500 * time.Nanosecond, 22667, 776},
	{EngineSpot, 1, 10, 1}: {9786500 * time.Nanosecond, 55874, 2282},
	{EngineSpot, 1, 10, 2}: {9722500 * time.Nanosecond, 49622, 2131},
}

// lossColumn is one column of rows: an engine and how many queue sets its
// System has, and the ceiling on each row's virtual time by loss %. At 2 %
// loss the one-queue ceilings are the targets the exhibit was built for; the
// others leave the same headroom.
type lossColumn struct {
	name    string
	engine  EngineKind
	threads int
	ceiling map[int]time.Duration
}

var lossColumns = []lossColumn{
	{"spot", EngineSpot, 1, map[int]time.Duration{0: 1530 * time.Microsecond, 1: 15 * time.Millisecond, 2: 25 * time.Millisecond, 5: 50 * time.Millisecond, 10: 100 * time.Millisecond}},
	{"p4", EngineP4, 1, p4Ceiling},
	// A second queue that only answers probes: its lost probes drain the
	// instance too, and its backed-off timeout must not stretch every drain
	// (the drain is sized without backoff, and a probe's round trip clears
	// it). The same ceilings hold.
	{"p4x2", EngineP4, 2, p4Ceiling},
}

var p4Ceiling = map[int]time.Duration{0: 2530 * time.Microsecond, 1: 20 * time.Millisecond, 2: 30 * time.Millisecond, 5: 60 * time.Millisecond, 10: 120 * time.Millisecond}

// TestLossRecoveryExhibit sweeps the loss rate on both engines, two seeds
// a row. It runs on one P with the collector off between runs. With several
// Ps, goroutines that run at one virtual instant run in parallel, and which
// of a retransmission tick and a frame delivery due at that instant goes
// first decides whether the tick replays; the collector's workers take the
// one P at moments the wall clock picks. Without either, runnable
// goroutines run in run-queue order and the rows repeat exactly
// (lossRow.matches).
//
// Spot rows are asserted against lossSpot. P4 rows repeat too, but are
// held to their column's ceilings and, with one queue and no loss, to the
// 2.51 ms the pipeline has always taken: their timing hinges on the switch
// generator's hot rung, a scheduler yield, so the ticks — probes and timeout
// checks — that fall at one virtual instant follow the runtime's run-queue
// order, which a Go release may change without the switch behaving any
// differently. Under the race detector, which randomizes run-queue order,
// spot rows are held to the ceilings too.
func TestLossRecoveryExhibit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t.Logf("%-4s %-4s %-4s %-10s %-10s %s", "", "loss", "seed", "time", "frames/op", "recoveries/op")
	for _, col := range lossColumns {
		for _, pct := range []int{0, 1, 2, 5, 10} {
			for seed := int64(1); seed <= 2; seed++ {
				c := lossCase{col.engine, col.threads, pct, seed}
				runtime.GC()
				row, err := runLossBubble(c)
				if err != nil {
					t.Fatalf("%s %d%% seed %d: %v", col.name, pct, seed, err)
				}
				t.Logf("%-4s %3d%% %-4d %-10v %-10.3f %.4f", col.name, pct, seed, row.elapsed,
					float64(row.frames)/lossOps, float64(row.recoveries)/lossOps)
				if want, ok := lossSpot[c]; ok && !raceEnabled && !row.matches(want) {
					t.Errorf("%s %d%% seed %d: got %v, want %v", col.name, pct, seed, row, want)
				}
				if hi := col.ceiling[pct]; row.elapsed > hi {
					t.Errorf("%s %d%% seed %d: %v, want at most %v", col.name, pct, seed, row.elapsed, hi)
				}
				if pct == 0 && row.recoveries != 0 {
					t.Errorf("%s lossless seed %d: %d recoveries", col.name, seed, row.recoveries)
				}
				if pct > 0 && row.recoveries == 0 {
					t.Errorf("%s %d%% seed %d: no recovery: the row tests nothing", col.name, pct, seed)
				}
				if col.name == "p4" && pct == 0 && row.elapsed < 2510*time.Microsecond {
					t.Errorf("p4 lossless seed %d: %v, below the pipeline's 2.51 ms", seed, row.elapsed)
				}
			}
		}
	}
}
