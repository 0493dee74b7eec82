package system

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/engine/p4"
	"cowbird/internal/rings"
)

// p4ReadWindow returns one closed-loop round of p4_read_64's shape on s: a
// window of sixteen 64-byte reads issued together, then polled until every
// one of them has completed. Like the benchmark's driver it yields only
// after a poll that found nothing, never sleeps, and returns — to issue the
// next window — straight from the poll that completed the last read.
func p4ReadWindow(t *testing.T, s *System) func() {
	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	var bufs [16][64]byte
	return func() {
		for i := range bufs {
			id, err := th.AsyncRead(0, uint64(i)*64, bufs[i][:])
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Add(id); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for left := len(bufs); left > 0; {
			done, err := g.WaitErr(len(bufs), 0)
			if err != nil || time.Now().After(deadline) {
				t.Fatalf("window stalled with %d reads left: %v", left, err)
			}
			if left -= len(done); len(done) == 0 {
				runtime.Gosched()
			}
		}
	}
}

// p4Rounds runs warm-up rounds (the generator turns hot) and then n measured
// rounds of p4ReadWindow on a fresh EngineP4 System at GOMAXPROCS(1), and
// returns the engine counters of the measured rounds.
func p4Rounds(t *testing.T, n int) p4.Stats {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := startSystem(t, func(c *Config) { c.Engine = EngineP4 })
	round := p4ReadWindow(t, s)
	for i := 0; i < 20; i++ {
		round()
	}
	a := s.P4.Stats()
	for i := 0; i < n; i++ {
		round()
	}
	b := s.P4.Stats()
	if b.Recoveries != 0 {
		t.Fatalf("recovery on a lossless fabric: %+v", b)
	}
	return p4.Stats{
		ProbesSent:      b.ProbesSent - a.ProbesSent,
		PacketsRecycled: b.PacketsRecycled - a.PacketsRecycled,
		EntriesFetched:  b.EntriesFetched - a.EntriesFetched,
		ReadsCompleted:  b.ReadsCompleted - a.ReadsCompleted,
		RedWrites:       b.RedWrites - a.RedWrites,
		GeneratorYields: b.GeneratorYields - a.GeneratorYields,
		GeneratorWaits:  b.GeneratorWaits - a.GeneratorWaits,
	}
}

// TestOneRedWritePerDrainedBatch: a window of 16 reads is fetched in one
// metadata read and drains the queue once, so Phase IV writes the red block
// once per window, not once per read. Each read recycles its pool response
// into a response write; each window recycles one probe response into the
// fetch and one ACK into the red write: 18 packets per 16 reads.
func TestOneRedWritePerDrainedBatch(t *testing.T) {
	const rounds = 200
	d := p4Rounds(t, rounds)
	reads := d.ReadsCompleted
	if reads != rounds*16 || d.EntriesFetched != reads {
		t.Fatalf("%d reads completed and %d entries fetched, want %d", reads, d.EntriesFetched, rounds*16)
	}
	fetches := d.PacketsRecycled - reads - d.RedWrites // a 64-byte read recycles one packet
	if d.RedWrites != fetches || d.RedWrites != rounds {
		t.Fatalf("%d red writes for %d metadata fetches over %d windows, want one per window", d.RedWrites, fetches, rounds)
	}
	if d.PacketsRecycled*8 != reads*9 {
		t.Fatalf("%d packets recycled for %d reads, want 1.125 per read", d.PacketsRecycled, reads)
	}
}

// TestHotGeneratorOneProbePerBatch: in a closed loop the generator yields
// between ticks, so the client refills the ring before the next probe and
// nearly every probe finds a whole window — not two ticks per window, the
// first one landing while the batch is still in flight — and the generator
// never falls to its timer.
func TestHotGeneratorOneProbePerBatch(t *testing.T) {
	if raceEnabled {
		// Instrumented, the goroutines' turns on the one P come out in a
		// different order (1.2 probes per window measured); the gate runs in
		// the non-race "Work counts" CI step.
		t.Skip("race instrumentation reorders the scheduler")
	}
	const rounds = 200
	d := p4Rounds(t, rounds)
	fetches := d.PacketsRecycled - d.ReadsCompleted - d.RedWrites
	t.Logf("per window: %.3f probes, %.3f generator yields, %.3f generator timer waits",
		float64(d.ProbesSent)/rounds, float64(d.GeneratorYields)/rounds, float64(d.GeneratorWaits)/rounds)
	if fetches == 0 || float64(d.ProbesSent) > 1.1*float64(fetches) {
		t.Fatalf("%d probes for %d fetched batches, want at most 1.1 per batch", d.ProbesSent, fetches)
	}
	// A hot generator never spends its miss budget between windows, so it
	// never waits on its timer (0 measured; one window in twenty is the
	// margin).
	if float64(d.GeneratorWaits) > 0.05*rounds {
		t.Fatalf("%d generator timer waits over %d windows, want ~0", d.GeneratorWaits, rounds)
	}
}

// TestCoalescedRedUnderLoss: TestP4LossRecovery's loss pattern (15 % of all
// frames) against a sliding window of 16 reads, so Phase IV coalescing and
// the drain-and-resync recovery interleave: red writes that were consumed
// into a later one, red writes lost, completions whose only red write the
// drain swallowed. Over 20 seeds every read must return its block's bytes
// and the red block the client reads must never move backwards.
func TestCoalescedRedUnderLoss(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel() // each seed mostly waits out drains
			coalescedRedUnderLoss(t, seed)
		})
	}
}

func coalescedRedUnderLoss(t *testing.T, seed int64) {
	const window, reads, blocks = 16, 32, 256
	s := startSystem(t, func(c *Config) {
		c.Engine = EngineP4
		c.RegionSize = blocks * 64
		c.P4.Timeout = 40 * time.Millisecond // as TestP4LossRecovery, for the same reason
	})
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(seed), byte(i)}, 32) }
	for i := 0; i < blocks; i++ {
		if err := s.Pool.Poke(0, uint64(i)*64, block(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The predicate runs on the senders' goroutines, one frame at a time
	// under the forwarding lock, so its generator needs no lock of its own —
	// and must not share one with this goroutine, which issues reads while
	// an inbox goroutine may be mid-Send holding the ring's DMA lock.
	loss := rand.New(rand.NewSource(seed))
	s.Fabric.SetLossFn(func([]byte) bool { return loss.Intn(100) < 15 })
	rng := rand.New(rand.NewSource(^seed))

	th, _ := s.Client.Thread(0)
	g := th.PollCreate()
	qs := th.QueueSet()
	type slot struct {
		buf [64]byte
		blk int
	}
	var slots [window]slot
	bySlot := map[core.ReqID]int{}
	issued := 0
	issue := func(i int) {
		slots[i].blk = rng.Intn(blocks)
		id, err := th.AsyncRead(0, uint64(slots[i].blk)*64, slots[i].buf[:])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.Add(id); err != nil {
			t.Fatal(err)
		}
		bySlot[id] = i
		issued++
	}
	for i := range slots {
		issue(i)
	}

	var seen rings.Red
	deadline := time.Now().Add(120 * time.Second)
	for done := 0; done < reads; {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: %d of %d reads completed (%+v)", seed, done, reads, s.P4.Stats())
		}
		ids := g.Wait(window, 5*time.Millisecond)
		red := qs.Red()
		if red.MetaHead < seen.MetaHead || red.ReadProgress < seen.ReadProgress || red.Heartbeat < seen.Heartbeat {
			t.Fatalf("seed %d: the client's red block went backwards: %+v after %+v", seed, red, seen)
		}
		seen = red
		for _, id := range ids {
			i := bySlot[id]
			delete(bySlot, id)
			if want := block(slots[i].blk); !bytes.Equal(slots[i].buf[:], want) {
				t.Fatalf("seed %d: read of block %d returned % x", seed, slots[i].blk, slots[i].buf[:4])
			}
			if done++; issued < reads {
				issue(i)
			}
		}
	}
}
