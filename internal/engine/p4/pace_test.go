package p4

import (
	"bytes"
	"testing"
	"time"

	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// TestStopWithoutRun: Stop waited on a channel only probeLoop closes, so an
// engine that was never Run — system.New's error path closes one — hung
// forever. Stop must return before Run, more than once, and after Run.
func TestStopWithoutRun(t *testing.T) {
	fabric := rdma.NewFabric()
	defer fabric.Close()
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		never := New(fabric, wire.MAC{2, 0xEE, 9, 0, 0, 5}, wire.IPv4Addr{10, 9, 9, 5}, DefaultConfig())
		never.Stop()
		never.Stop()
		ran := New(fabric, wire.MAC{2, 0xEE, 9, 0, 0, 6}, wire.IPv4Addr{10, 9, 9, 6}, DefaultConfig())
		ran.Run()
		ran.Run()
		ran.Stop()
		ran.Stop()
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop blocked")
	}
}

// TestGeneratorCoolsWhenIdle: the generator yields instead of ticking only
// while its probes find work. Once traffic stops it may spend its miss
// budget and must then fall back to one tick per ProbeInterval — an idle
// switch that kept yielding would probe tens of thousands of times in the
// window below. Nothing is lost, so nothing may time out: an idle queue's
// probes are its only exchanges, and each one moves its progress stamp.
func TestGeneratorCoolsWhenIdle(t *testing.T) {
	cfg := testConfig()
	cfg.ProbeInterval = time.Millisecond
	eng, envs := newMultiInstanceCfg(t, 1, 1, cfg)
	th, _ := envs[0].client.Thread(0)
	data := bytes.Repeat([]byte{0x6B}, 64)
	dest := make([]byte, 64)
	for i := 0; i < 20; i++ {
		if err := th.WriteSync(0, data, uint64(i)*64, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := th.ReadSync(0, uint64(i)*64, dest, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	start, p0 := time.Now(), eng.Stats().ProbesSent
	time.Sleep(100 * time.Millisecond)
	probes, elapsed := eng.Stats().ProbesSent-p0, time.Since(start)
	if bound := int64(hotMisses) + int64(elapsed/cfg.ProbeInterval) + 1; probes > bound {
		t.Fatalf("%d probes in %v of idleness, want at most %d (miss budget %d + one per %v)",
			probes, elapsed, bound, hotMisses, cfg.ProbeInterval)
	}
	if n := eng.Stats().Recoveries; n != 0 {
		t.Fatalf("%d recoveries without a loss", n)
	}
}

// step feeds one frame straight to the engine, bypassing the fabric, and
// returns what it emitted (the engine reuses its output slice).
func (h *hostSim) step(frame []byte) [][]byte {
	return append([][]byte(nil), h.eng.Process(frame)...)
}

// one steps frame and returns the one frame the engine emitted for it.
func (h *hostSim) one(frame []byte) []byte {
	h.t.Helper()
	out := h.step(frame)
	if len(out) != 1 {
		h.t.Fatalf("engine emitted %d frames, want 1", len(out))
	}
	return out[0]
}

// TestRedPublishedWithoutDrain: three metadata fetches stay overlapped — the
// pool answers the oldest fetch's reads only once two later fetches are
// issued — so a read always waits for its data and no completion ever
// leaves the queue without a request in flight. The switch must still ask
// for an ACK every MTU/MetaEntrySize response writes, and Phase IV must
// still publish every MTU/MetaEntrySize completions, each red block showing
// every completion so far; and the final drain must publish the rest:
// nothing wedges waiting for a drain that never comes.
func TestRedPublishedWithoutDrain(t *testing.T) {
	h := newHostSim(t)
	every := h.eng.cfg.MTU / rings.MetaEntrySize
	const perFetch, fetches, overlap = 4, 41, 3
	h.entry = rings.Entry{Type: rings.OpRead, ReqAddr: 0x30_0000, RespAddr: 0x31_0000, Length: uint32(len(h.dataBuf))}

	var p wire.Packet
	var reds []rings.Red
	writes, asked := 0, 0
	// answer hands the engine the pool's answer to one read and the host's
	// ACK of the response write it becomes, if that write asks for one.
	answer := func(data []byte) {
		writes++
		ack := h.respond(h.one(data))
		if ack == nil {
			return
		}
		asked++
		before := h.eng.Stats().ReadsCompleted
		out := h.step(ack)
		completions := h.eng.Stats().ReadsCompleted
		if completions != int64(writes) {
			t.Fatalf("the ACK of write %d left %d of them completed (%d before it)", writes, completions, before)
		}
		for _, f := range out {
			if err := p.DecodeFromBytes(f); err != nil || p.RETH.VA != h.redVA {
				t.Fatalf("completion %d emitted something other than a red write", completions)
			}
			red := rings.DecodeRed(p.Payload)
			if red.ReadProgress != uint64(completions) {
				t.Fatalf("red write at completion %d publishes read progress %d", completions, red.ReadProgress)
			}
			reds = append(reds, red)
			if out := h.step(h.respond(f)); len(out) != 0 {
				t.Fatal("the red write's ACK was recycled")
			}
		}
	}

	var held [][][]byte // per fetch, the pool's answers not yet delivered
	for f := 0; f < fetches; f++ {
		h.tail += perFetch
		reads := h.step(h.respond(h.one(h.respond(h.one(h.eng.tick))))) // probe → fetch → pool reads
		if len(reads) != perFetch {
			t.Fatalf("fetch %d issued %d reads, want %d", f, len(reads), perFetch)
		}
		var answers [][]byte
		for _, r := range reads {
			answers = append(answers, h.respond(r))
		}
		if held = append(held, answers); len(held) == overlap {
			for _, a := range held[0] {
				answer(a)
			}
			held = held[1:]
		}
	}
	if want := writes / every; asked != want || len(reds) != want {
		t.Fatalf("%d ACKs asked for and %d red writes over %d completions of a queue that never drained, want one each per %d (%d)",
			asked, len(reds), writes, every, want)
	}
	for _, answers := range held {
		for _, a := range answers {
			answer(a)
		}
	}
	last := reds[len(reds)-1]
	if total := uint64(fetches * perFetch); last.ReadProgress != total || last.MetaHead != total {
		t.Fatalf("after the drain the red block shows progress %d, head %d; want %d", last.ReadProgress, last.MetaHead, total)
	}
	if want := writes/every + 1; len(reds) != want {
		t.Fatalf("%d red writes in all, want %d (one per %d completions and one for the drain)", len(reds), want, every)
	}
}
