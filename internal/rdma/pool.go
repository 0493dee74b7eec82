package rdma

// framePool recycles wire-frame buffers so the steady-state datapath
// performs no allocation per packet. Buffers live in two MTU-derived
// capacity classes: small (ACKs, NAKs, atomic responses, bookkeeping
// packets) and large (full-MTU data segments under the default 1024-byte
// MTU, plus all headers). Oversized frames — exotic MTU configurations —
// bypass the pool entirely.
//
// The freelists are buffered channels rather than sync.Pool: channel
// send/receive of a []byte moves only the slice header (no boxing
// allocation on Put, unlike storing slices in an interface), and the pool
// is not emptied by GC cycles, which would show up as allocation spikes on
// the frame path. Channels also make the pool naturally MPMC: any NIC on
// the fabric gets frames, and any inbox goroutine returns them, so
// asymmetric traffic (one side sends data, the other only ACKs) still
// recirculates buffers globally.
//
// Lifecycle: NIC.emit* — or a FrameReleaser interposer, through
// Fabric.FrameBuf — gets a buffer and serializes into it
// (wire.Packet.SerializeInto); Fabric.Send transfers ownership to the
// fabric; after the destination device's Input returns, the inbox returns
// the buffer to the pool — but only when the frame travelled the direct
// fast path or a FrameReleaser interposer (any other might retain it) and
// the device is one of ours (NIC, UDP proxy), which never keep a frame past
// Input. A frame a FrameReleaser consumed goes back as soon as Process
// returns. Frames delivered to foreign devices, forwarded through any other
// interposer, or forwarded under a loss/delay knob are left to the garbage
// collector.
type framePool struct {
	small chan []byte // every buffer has cap >= frameClassSmall
	large chan []byte // every buffer has cap >= frameClassLarge
}

const (
	// frameClassSmall covers every payload-free packet: the largest is an
	// atomic acknowledge at Eth+IPv4+UDP+BTH+AETH+AtomicAck+ICRC = 66 bytes.
	frameClassSmall = 128
	// frameClassLarge covers a full data segment at the default 1024-byte
	// MTU: headers + RETH + payload + pad + ICRC < 1200 bytes, rounded up so
	// moderately larger MTUs still pool.
	frameClassLarge = 2048
	// framePoolDepth bounds retained memory per class (2048*2048 = 4 MiB for
	// the large class); overflow frames are dropped to the GC.
	framePoolDepth = 2048
)

func newFramePool() *framePool {
	return &framePool{
		small: make(chan []byte, framePoolDepth),
		large: make(chan []byte, framePoolDepth),
	}
}

// get returns a buffer with capacity >= n, recycled when possible. The
// returned slice has zero length; callers reslice (SerializeInto does).
func (p *framePool) get(n int) []byte {
	switch {
	case n <= frameClassSmall:
		select {
		case b := <-p.small:
			return b
		default:
		}
		return make([]byte, 0, frameClassSmall)
	case n <= frameClassLarge:
		select {
		case b := <-p.large:
			return b
		default:
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
		select {
		case p.large <- b[:0]:
		default:
		}
	case cap(b) >= frameClassSmall:
		select {
		case p.small <- b[:0]:
		default:
		}
	}
}
