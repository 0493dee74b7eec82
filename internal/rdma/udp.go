package rdma

import (
	"fmt"
	"net"
	"sync"

	"cowbird/internal/wire"
)

// UDPBridge extends a Fabric across process boundaries: frames addressed to
// a registered remote MAC are tunneled over UDP to the peer process, and
// frames arriving over UDP are injected into the local fabric. Every
// Cowbird component (compute node, spot engine, memory pool) can therefore
// run as its own OS process, exchanging byte-identical RoCEv2 frames —
// the cmd/cowbird-{app,engine,memnode} trio does exactly this.
//
// UDP's loss/reordering semantics are the same class the RoCEv2 substrate
// already tolerates (Go-Back-N recovers), so no extra reliability layer is
// needed or wanted.
type UDPBridge struct {
	fabric *Fabric
	conn   *net.UDPConn

	mu      sync.Mutex
	peers   map[wire.MAC]*net.UDPAddr
	proxies map[wire.MAC]bool
	closed  bool

	wg sync.WaitGroup
}

// NewUDPBridge listens on the given UDP address (e.g. ":7000" or
// "127.0.0.1:0") and starts injecting received frames into f.
func NewUDPBridge(f *Fabric, listen string) (*UDPBridge, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("rdma: udp bridge: %w", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rdma: udp bridge: %w", err)
	}
	b := &UDPBridge{
		fabric:  f,
		conn:    conn,
		peers:   make(map[wire.MAC]*net.UDPAddr),
		proxies: make(map[wire.MAC]bool),
	}
	b.wg.Add(1)
	go b.readLoop()
	return b, nil
}

// LocalAddr returns the bridge's bound UDP address.
func (b *UDPBridge) LocalAddr() string { return b.conn.LocalAddr().String() }

// AddPeer routes frames addressed to mac over UDP to addr. It attaches a
// proxy device under that MAC, so the local fabric forwards to it like any
// other device; a MAC a local device already holds is an error.
func (b *UDPBridge) AddPeer(mac wire.MAC, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("rdma: udp peer %s: %w", addr, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.proxies[mac] {
		if err := b.fabric.attach(&udpProxy{b: b, mac: mac}); err != nil {
			return fmt.Errorf("rdma: udp peer %s: %w", addr, err)
		}
		b.proxies[mac] = true
	}
	b.peers[mac] = ua
	return nil
}

// Close stops the bridge. The fabric keeps running; frames to remote MACs
// are dropped afterwards.
func (b *UDPBridge) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.conn.Close()
	b.wg.Wait()
}

// maxFrame bounds a tunneled frame: MTU payload plus all headers.
const maxFrame = 2048

func (b *UDPBridge) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, maxFrame)
	for {
		n, _, err := b.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if n < wire.EthernetLen {
			continue
		}
		frame := make([]byte, n)
		copy(frame, buf[:n])
		b.fabric.Send(frame)
	}
}

// udpProxy stands in for one remote MAC on the local fabric.
type udpProxy struct {
	b   *UDPBridge
	mac wire.MAC
}

func (p *udpProxy) MAC() wire.MAC { return p.mac }

// nonRetainingInput marks the proxy's frames as recyclable: Input hands the
// frame to a blocking UDP write and keeps no reference past return.
func (p *udpProxy) nonRetainingInput() {}

func (p *udpProxy) Input(frame []byte) {
	p.b.mu.Lock()
	addr := p.b.peers[p.mac]
	closed := p.b.closed
	p.b.mu.Unlock()
	if closed || addr == nil {
		return
	}
	// Best-effort, like the wire itself; loss is the substrate's problem.
	_, _ = p.b.conn.WriteToUDP(frame, addr)
}
