package p4

import (
	"runtime"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// hostSim emulates both hosts of one instance — the compute node's rings and
// the memory pool — at the wire level, without NICs: it is the one device
// attached to a fabric whose interposer is the engine, standing behind a
// single MAC for both hosts (their QPNs tell them apart). It answers every
// switch-emitted frame with the response a host RNIC would send, serializing
// the reply into the very buffer the request arrived in (a foreign device
// owns the frames delivered to it), and sends it back into the fabric, which
// returns it to the frame pool once the engine has consumed it — the pool
// the engine's next output is drawn from. The closed loop circulates a fixed
// set of buffers: after warmup nobody allocates, which is what lets the gate
// demand a hard zero from testing.AllocsPerRun.
type hostSim struct {
	t      *testing.T
	fabric *rdma.Fabric
	eng    *Engine
	sw     SwitchInfo
	mac    wire.MAC
	rx     chan []byte // switch-emitted frames, handed over by Input

	compQPN, poolQPN uint32
	greenVA, redVA   uint64
	metaLo, metaHi   uint64

	tail  uint64      // green MetaTail published to the engine
	entry rings.Entry // every entry a metadata fetch returns

	dec, enc wire.Packet
	greenBuf [rings.GreenSize]byte
	metaBuf  [1024]byte // one MTU of entries
	dataBuf  [64]byte
}

// MAC and Input implement rdma.Device. Input only hands the frame to the
// test goroutine, so the whole protocol still executes there.
func (h *hostSim) MAC() wire.MAC { return h.mac }

func (h *hostSim) Input(frame []byte) { h.rx <- frame }

// respond parses one switch-emitted frame and builds the host's answer in
// place, or returns nil for frames a host would not acknowledge.
func (h *hostSim) respond(frame []byte) []byte {
	if err := h.dec.DecodeFromBytes(frame); err != nil {
		h.t.Fatalf("hostSim: undecodable switch frame: %v", err)
	}
	var toCompute bool
	switch h.dec.BTH.DestQP {
	case h.compQPN:
		toCompute = true
	case h.poolQPN:
	default:
		h.t.Fatalf("hostSim: frame for unknown QPN %d", h.dec.BTH.DestQP)
	}
	swQPN := h.sw.PoolQPN
	if toCompute {
		swQPN = h.sw.ComputeQPN
	}
	psn := h.dec.BTH.PSN
	op := h.dec.BTH.OpCode

	h.enc = wire.Packet{}
	h.enc.Eth.Dst = h.eng.MAC()
	h.enc.IP.Dst = h.eng.IP()
	h.enc.BTH.DestQP = swQPN
	h.enc.BTH.PSN = psn
	h.enc.AETH = wire.AETH{Syndrome: wire.SyndromeACK}

	switch {
	case op == wire.OpReadRequest:
		va, dmaLen := h.dec.RETH.VA, h.dec.RETH.DMALen
		var payload []byte
		switch {
		case toCompute && va == h.greenVA:
			rings.EncodeGreen(rings.Green{MetaTail: h.tail}, h.greenBuf[:])
			payload = h.greenBuf[:]
		case toCompute && va >= h.metaLo && va < h.metaHi:
			payload = h.metaBuf[:dmaLen]
			for i := 0; i < len(payload); i += rings.MetaEntrySize {
				rings.EncodeEntry(h.entry, payload[i:])
			}
		default:
			// Data fetch: a write payload from compute memory or read data
			// from the pool. Content is irrelevant to the engine's datapath.
			if int(dmaLen) > len(h.dataBuf) {
				h.t.Fatalf("hostSim: data fetch of %d bytes exceeds the harness buffer", dmaLen)
			}
			payload = h.dataBuf[:dmaLen]
		}
		h.enc.BTH.OpCode = wire.OpReadResponseOnly
		h.enc.Payload = payload
	case op.IsWrite():
		if !h.dec.BTH.AckReq {
			return nil // unacknowledged middle packet; nothing to say
		}
		h.enc.BTH.OpCode = wire.OpAcknowledge
	default:
		h.t.Fatalf("hostSim: unexpected switch opcode %v", op)
	}
	out, err := h.enc.SerializeInto(frame[:cap(frame)])
	if err != nil {
		h.t.Fatalf("hostSim: serialize reply: %v", err)
	}
	return out
}

// framesPerOp is how many frames the switch emits for one 64-byte request:
// probe, metadata fetch, data read, data write, red-block write. The host's
// answer to the last one (an ACK) is consumed without a reply.
const framesPerOp = 5

// recv waits for the next switch-emitted frame without allocating.
func (h *hostSim) recv() []byte {
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case f := <-h.rx:
			return f
		default:
		}
		if time.Now().After(deadline) {
			h.t.Fatal("hostSim: the switch went quiet mid-operation")
		}
		runtime.Gosched()
	}
}

// runOp publishes one metadata entry and ticks the generator, then answers
// the chain it sets off (green read → metadata fetch → data movement → ACKs
// → red write) frame by frame. Send runs Process on this goroutine, so when
// the last answer's Send returns the engine is quiescent again.
func (h *hostSim) runOp(typ rings.OpType) {
	h.entry = rings.Entry{
		Type: typ, ReqAddr: 0x30_0000, RespAddr: 0x31_0000,
		Length: uint32(len(h.dataBuf)), RegionID: 0,
	}
	h.tail++
	h.fabric.Send(h.eng.tick)
	for i := 0; i < framesPerOp; i++ {
		h.fabric.Send(h.respond(h.recv()))
	}
}

// newHostSim builds a fabric whose interposer is an engine with one
// registered instance, and attaches the simulator behind its two emulated
// QPs. The engine is never Run: ticks are injected by the test, so the whole
// protocol executes on the test goroutine.
func newHostSim(t *testing.T) *hostSim {
	lay := rings.Layout{MetaEntries: 64, ReqDataBytes: 8 << 10, RespDataBytes: 8 << 10}
	fabric := rdma.NewFabric()
	t.Cleanup(fabric.Close)
	eng := New(fabric, wire.MAC{2, 0xEE, 7, 0, 0, 1}, wire.IPv4Addr{10, 8, 7, 1}, Config{
		ProbeInterval: time.Hour, // unused: the test injects ticks itself
		Timeout:       time.Hour, // recovery must never trigger mid-gate
		MTU:           1024,
		DataTOS:       8,
	})
	const baseVA = 0x10_0000
	info := &core.Instance{
		ID:      0,
		Queues:  []core.QueueInfo{{Index: 0, BaseVA: baseVA, Layout: lay, RKey: 7}},
		Regions: []core.RegionInfo{{ID: 0, Base: 0x30_0000, Size: 1 << 20, RKey: 9}},
	}
	h := &hostSim{
		t: t, fabric: fabric, eng: eng,
		mac:     wire.MAC{2, 0xEE, 7, 1, 0, 1},
		rx:      make(chan []byte, 2*framesPerOp), // more than one operation ever has in flight
		compQPN: 2000, poolQPN: 4000,
		greenVA: baseVA + uint64(lay.GreenOffset()),
		redVA:   baseVA + uint64(lay.RedOffset()),
		metaLo:  baseVA + uint64(lay.MetaOffset(0)),
		metaHi:  baseVA + uint64(lay.MetaOffset(lay.MetaEntries)),
	}
	fabric.SetInterposer(eng)
	fabric.Attach(h)
	sw, err := eng.Setup(info, Endpoints{
		Compute: Endpoint{MAC: h.mac, IP: wire.IPv4Addr{10, 8, 7, 2}, QPN: h.compQPN},
		Pool:    Endpoint{MAC: h.mac, IP: wire.IPv4Addr{10, 8, 7, 3}, QPN: h.poolQPN},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.sw = sw
	return h
}

// TestProcessAllocFree is the tentpole's hard zero-allocation gate for the
// p4 datapath: after warmup, a full request lifecycle — probe, metadata
// fetch, data movement, completion ACK, red-block write — driven through the
// fabric's forwarding lock and Process must not allocate. The warmup
// populates the fabric's frame pool and the engine's object pools from the
// circulating buffers; steady state then conserves them, so any allocation
// is a regression on the per-request path (an escaping packet, a growing
// map, a frame that missed the pool).
func TestProcessAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI lane")
	}
	h := newHostSim(t)

	for i := 0; i < 64; i++ {
		h.runOp(rings.OpWrite)
		h.runOp(rings.OpRead)
	}
	st := h.eng.Stats()
	if st.WritesCompleted != 64 || st.ReadsCompleted != 64 {
		t.Fatalf("warmup did not complete: %+v", st)
	}

	allocs := testing.AllocsPerRun(500, func() {
		h.runOp(rings.OpWrite)
		h.runOp(rings.OpRead)
	})
	if allocs != 0 {
		t.Fatalf("p4 per-request path allocates %v allocs/op, want 0", allocs)
	}

	// The measured ops must have actually exercised the datapath, not been
	// silently dropped: AllocsPerRun ran the op pair 501 times (one priming
	// run plus 500 measured).
	st = h.eng.Stats()
	if st.WritesCompleted != 64+501 || st.ReadsCompleted != 64+501 {
		t.Fatalf("measured ops did not all complete: %+v", st)
	}
}

// TestHostSimLifecycle sanity-checks the emulator itself against the
// engine's bookkeeping so the allocation gate cannot green-light a harness
// that stopped exercising the protocol.
func TestHostSimLifecycle(t *testing.T) {
	h := newHostSim(t)
	h.runOp(rings.OpWrite)
	h.runOp(rings.OpRead)
	st := h.eng.Stats()
	if st.EntriesFetched != 2 {
		t.Fatalf("entries fetched = %d, want 2", st.EntriesFetched)
	}
	if st.WritesCompleted != 1 || st.ReadsCompleted != 1 {
		t.Fatalf("completions: %+v", st)
	}
	if st.ProbesSent != 2 || st.RedWrites != 2 {
		t.Fatalf("probe/red accounting: %+v", st)
	}
}
