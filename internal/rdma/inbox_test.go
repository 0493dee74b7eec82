package rdma

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"cowbird/internal/wire"
)

// orderDevice records the per-frame flow tags it receives, in delivery
// order, and signals arrival so tests can wait without polling.
type orderDevice struct {
	mac  wire.MAC
	mu   sync.Mutex
	tags []uint32
	cond *sync.Cond
}

func newOrderDevice() *orderDevice {
	d := &orderDevice{mac: wire.MAC{0x02, 0xEE, 0, 0, 0, 1}}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *orderDevice) MAC() wire.MAC { return d.mac }

func (d *orderDevice) Input(frame []byte) {
	d.mu.Lock()
	d.tags = append(d.tags, flowKey(frame))
	d.cond.Signal()
	d.mu.Unlock()
}

// waitFor blocks until n frames have been delivered (or the deadline hits)
// and returns a snapshot of the delivery order.
func (d *orderDevice) waitFor(t *testing.T, n int) []uint32 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	stop := time.AfterFunc(time.Until(deadline), func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer stop.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.tags) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d of %d frames delivered", len(d.tags), n)
		}
		d.cond.Wait()
	}
	return append([]uint32(nil), d.tags[:n]...)
}

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

// TestInboxNoHeadOfLineBlocking is the starvation regression for the
// single-FIFO inbox: with many tenants on one fabric, a hot QP's burst used
// to head-of-line-block every peer queued behind it. After round-robin
// draining, a victim frame that arrives behind an aggressor burst must be
// delivered within one round-robin turn — amid the burst, not after it.
func TestInboxNoHeadOfLineBlocking(t *testing.T) {
	dev := newOrderDevice()
	ib := newInbox(dev, newFramePool())
	const aggressorQP, victimQP = 100, 200
	const burst = 5000

	// Queue the whole burst, then the victim's single frame, before the
	// delivery goroutine starts: the worst-case arrival order.
	for i := 0; i < burst; i++ {
		ib.put(roceFrame(aggressorQP), 0, false)
	}
	ib.put(roceFrame(victimQP), 0, false)
	go ib.run()
	defer ib.close()

	order := dev.waitFor(t, burst+1)
	pos := -1
	for i, tag := range order {
		if tag == victimQP {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("victim frame never delivered")
	}
	// One RR turn: at most one aggressor frame ahead of the victim (plus
	// slack for the drain batch already in flight when it arrived).
	if pos > 2 {
		t.Fatalf("victim delivered at position %d of %d — head-of-line blocked behind the burst", pos, burst+1)
	}
}

// TestInboxPerFlowFIFO pins the ordering contract that survives the change:
// round-robin may interleave flows, but within one flow (one RC QP's packet
// stream) arrival order is preserved exactly.
func TestInboxPerFlowFIFO(t *testing.T) {
	const flows, perFlow = 5, 200
	dev := &seqCheckDevice{
		t:    t,
		seq:  make([]uint32, flows),
		done: make(chan struct{}),
		want: flows * perFlow,
	}
	ib := newInbox(dev, newFramePool())
	for i := 0; i < perFlow; i++ {
		for q := 0; q < flows; q++ {
			fr := roceFrame(uint32(1000 + q))
			// Tag the sequence number in a payload-free spot: reuse the PSN
			// bytes of the BTH (offsets 8..11), which flowKey ignores.
			bth := wire.EthernetLen + wire.IPv4Len + wire.UDPLen
			binary.BigEndian.PutUint32(fr[bth+8:bth+12], uint32(i))
			ib.put(fr, 0, false)
		}
	}
	go ib.run()
	defer ib.close()
	select {
	case <-dev.done:
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for per-flow FIFO delivery")
	}
}

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
