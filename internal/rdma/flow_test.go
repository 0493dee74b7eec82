package rdma

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"cowbird/internal/wire"
)

// roceFrame builds a minimal RoCEv2 frame addressed to destQP.
func roceFrame(destQP uint32) []byte {
	fr := make([]byte, wire.EthernetLen+wire.IPv4Len+wire.UDPLen+wire.BTHLen)
	fr[12], fr[13] = 0x08, 0x00 // ethertype IPv4
	fr[wire.EthernetLen+9] = 17 // proto UDP
	udp := wire.EthernetLen + wire.IPv4Len
	binary.BigEndian.PutUint16(fr[udp+2:udp+4], wire.RoCEv2Port)
	bth := udp + wire.UDPLen
	binary.BigEndian.PutUint32(fr[bth+4:bth+8], destQP&0x00ffffff)
	return fr
}

func TestFlowKeyClassification(t *testing.T) {
	if k := flowKey(roceFrame(0x1234)); k != 0x1234 {
		t.Fatalf("flowKey = %#x, want 0x1234", k)
	}
	short := []byte{1, 2, 3}
	if k := flowKey(short); k != nonQPFlow {
		t.Fatalf("short frame classified as QP %#x", k)
	}
	notIP := roceFrame(7)
	notIP[12] = 0x86 // not IPv4
	if k := flowKey(notIP); k != nonQPFlow {
		t.Fatalf("non-IP frame classified as QP %#x", k)
	}
	notRoce := roceFrame(7)
	binary.BigEndian.PutUint16(notRoce[wire.EthernetLen+wire.IPv4Len+2:], 53)
	if k := flowKey(notRoce); k != nonQPFlow {
		t.Fatalf("non-RoCE UDP frame classified as QP %#x", k)
	}
}

// seqCheckDevice checks that each flow's frames, tagged with a sequence
// number, arrive in order and exactly once. It is not safe for concurrent
// Input: TestInterposedOrderPreserved's frames all leave through the egress
// FIFO, which one goroutine at a time delivers.
type seqCheckDevice struct {
	t    *testing.T
	seq  []uint32
	got  int
	want int
	done chan struct{}
}

func (d *seqCheckDevice) MAC() wire.MAC { return wire.MAC{0x02, 0xEE, 0, 0, 0, 2} }

func (d *seqCheckDevice) Input(frame []byte) {
	q := flowKey(frame) - 1000
	bth := wire.EthernetLen + wire.IPv4Len + wire.UDPLen
	got := binary.BigEndian.Uint32(frame[bth+8 : bth+12])
	if got != d.seq[q] {
		d.t.Errorf("flow %d: frame %d delivered, want %d (FIFO broken within flow)", q, got, d.seq[q])
	}
	d.seq[q]++
	d.got++
	if d.got == d.want {
		close(d.done)
	}
}

// TestInterposedOrderPreserved: with forwarding on the senders' goroutines,
// under the forwarding lock, each sender's frames still arrive in order and
// exactly once — on one P and on two, and across flips of the loss knob
// mid-stream: Send deposits every frame before it returns, whichever knobs
// are installed, so a knob change cannot let a frame overtake an earlier one.
func TestInterposedOrderPreserved(t *testing.T) {
	const senders, perSender = 2, 10_000
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f := NewFabric()
			defer f.Close()
			dev := &seqCheckDevice{
				t:    t,
				seq:  make([]uint32, senders),
				done: make(chan struct{}),
				want: senders * perSender,
			}
			f.Attach(dev)
			f.SetInterposer(&releasingSwitch{})
			mac := dev.MAC()
			keepAll := func([]byte) bool { return false }
			for q := 0; q < senders; q++ {
				go func(q int) {
					bth := wire.EthernetLen + wire.IPv4Len + wire.UDPLen
					for i := 0; i < perSender; i++ {
						fr := roceFrame(uint32(1000 + q))
						copy(fr, mac[:])
						binary.BigEndian.PutUint32(fr[bth+8:bth+12], uint32(i))
						f.Send(fr)
						if q == 0 && i%250 == 0 { // flip the loss knob mid-stream
							if i%500 == 0 {
								f.SetLossFn(keepAll)
							} else {
								f.SetLossFn(nil)
							}
						}
					}
				}(q)
			}
			select {
			case <-dev.done:
			case <-time.After(30 * time.Second):
				t.Fatalf("GOMAXPROCS=%d: timeout waiting for %d interposed frames", procs, dev.want)
			}
		}()
	}
}

// TestOneDeliveryGoroutine: a fabric runs one goroutine of its own, the
// delay line's, however many devices are attached, and Close leaves none.
func TestOneDeliveryGoroutine(t *testing.T) {
	// settles waits for the goroutine count to reach want: a goroutine that
	// has signalled its exit may not have returned yet.
	settles := func(want int) bool {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if runtime.NumGoroutine() == want {
				return true
			}
		}
		return false
	}
	before := runtime.NumGoroutine()
	f := NewFabric()
	const nics = 64
	for i := 0; i < nics; i++ {
		NewNIC(f, wire.MAC{2, 0, 0, 0, 2, byte(i)}, wire.IPv4Addr{10, 0, 2, byte(i)}, DefaultConfig())
	}
	if !settles(before + 1) {
		t.Fatalf("%d goroutines with %d NICs attached, want %d: one delivery goroutine per fabric", runtime.NumGoroutine(), nics, before+1)
	}
	f.Close()
	if !settles(before) {
		t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), before)
	}
}
