package rdma

import "sync"

// framePool recycles wire-frame buffers so the steady-state datapath
// performs no allocation per packet. Buffers live in two MTU-derived
// capacity classes: small (ACKs, NAKs, READ requests, bookkeeping
// packets) and large (full-MTU data segments under the default 1024-byte
// MTU, plus all headers). Oversized frames — exotic MTU configurations —
// bypass the pool entirely.
//
// Each class is a mutex-guarded stack rather than sync.Pool or a buffered
// channel: a []byte pushed on a slice moves only its header (no boxing
// allocation on put, unlike storing slices in an interface), the pool is
// not emptied by GC cycles, which would show up as allocation spikes on the
// frame path, and an uncontended mutex around an append costs a fraction of
// the two channel operations (runtime lock plus non-blocking select) a frame
// used to pay. It is MPMC like the channel was — any NIC on the fabric gets
// frames, any delivering goroutine returns them, so asymmetric traffic still
// recirculates buffers globally — and hands back the buffer used last.
//
// Lifecycle: NIC.emit* — or a FrameReleaser interposer, through
// Fabric.FrameBuf — gets a buffer and serializes into it
// (wire.Packet.SerializeInto); Fabric.Send transfers ownership to the
// fabric; after the destination device's Input returns, the goroutine that
// delivered it — the sender's, or the fabric's delay line — returns the
// buffer to the pool — unless the frame passed through an interposer that
// is not a FrameReleaser (it might retain it) or the device is not one of
// ours (NIC, UDP proxy), which never keep a frame past Input. A frame a
// FrameReleaser consumed, or the loss predicate dropped, goes back at once.
type framePool struct {
	small frameClass // every buffer has cap >= frameClassSmall
	large frameClass // every buffer has cap >= frameClassLarge
}

// frameClass is one capacity class's free list.
type frameClass struct {
	mu   sync.Mutex
	free [][]byte
}

const (
	// frameClassSmall covers every payload-free packet: the largest is a
	// READ request at Eth+IPv4+UDP+BTH+RETH+ICRC = 74 bytes.
	frameClassSmall = 128
	// frameClassLarge covers a full data segment at the default 1024-byte
	// MTU: headers + RETH + payload + pad + ICRC < 1200 bytes, rounded up so
	// moderately larger MTUs still pool.
	frameClassLarge = 2048
	// framePoolDepth bounds retained memory per class (2048*2048 = 4 MiB for
	// the large class); overflow frames are dropped to the GC.
	framePoolDepth = 2048
)

// newFramePool sizes both free lists for their full depth up front, so a
// push never grows one inside somebody's allocation-counting window.
func newFramePool() *framePool {
	return &framePool{
		small: frameClass{free: make([][]byte, 0, framePoolDepth)},
		large: frameClass{free: make([][]byte, 0, framePoolDepth)},
	}
}

// pop returns the most recently pushed buffer, or nil.
func (c *frameClass) pop() []byte {
	c.mu.Lock()
	var b []byte
	if n := len(c.free); n > 0 {
		b, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	}
	c.mu.Unlock()
	return b
}

// push keeps b for reuse unless the class is at its depth bound.
func (c *frameClass) push(b []byte) {
	c.mu.Lock()
	if len(c.free) < framePoolDepth {
		c.free = append(c.free, b[:0])
	}
	c.mu.Unlock()
}

// get returns a buffer with capacity >= n, recycled when possible. The
// returned slice has zero length; callers reslice (SerializeInto does).
func (p *framePool) get(n int) []byte {
	switch {
	case n <= frameClassSmall:
		if b := p.small.pop(); b != nil {
			return b
		}
		return make([]byte, 0, frameClassSmall)
	case n <= frameClassLarge:
		if b := p.large.pop(); b != nil {
			return b
		}
		return make([]byte, 0, frameClassLarge)
	default:
		return make([]byte, 0, n)
	}
}

// put recycles b into the class its capacity supports. Buffers too small
// for any class (foreign frames injected by tests or the UDP bridge, the P4
// engine's shared generator-tick frame) never enter the pool, and overflow
// beyond the pool depth is dropped to the GC.
func (p *framePool) put(b []byte) {
	switch {
	case cap(b) >= frameClassLarge:
		p.large.push(b)
	case cap(b) >= frameClassSmall:
		p.small.push(b)
	}
}
