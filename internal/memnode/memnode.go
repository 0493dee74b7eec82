// Package memnode implements the Cowbird memory pool: a node that hosts
// registered memory regions and serves RDMA reads and writes against them.
// It runs no Cowbird-specific logic at all — in Cowbird the memory pool is
// a plain RDMA responder (Figure 3), which is exactly what makes harvested
// or stranded memory usable as a pool.
package memnode

import (
	"fmt"
	"sync"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// Node is a memory pool server.
type Node struct {
	nic *rdma.NIC

	mu      sync.Mutex
	nextVA  uint64
	regions map[uint16]region
	crashed bool
	fence   uint16 // current fencing floor, applied to every region MR
}

type region struct {
	info core.RegionInfo
	buf  []byte
	mu   *sync.Mutex // the region's DMA lock; never held with Node.mu ordering reversed
	mr   *rdma.MR    // retained so Fence can raise the region's floor
}

// New attaches a memory pool node to the fabric.
func New(f *rdma.Fabric, mac wire.MAC, ip wire.IPv4Addr, cfg rdma.Config) *Node {
	return &Node{
		nic:     rdma.NewNIC(f, mac, ip, cfg),
		nextVA:  0x4000_0000, // pool VAs start high to stand apart in traces
		regions: make(map[uint16]region),
	}
}

// NIC returns the node's RNIC, for QP wiring during Setup.
func (n *Node) NIC() *rdma.NIC { return n.nic }

// Close stops the node's NIC.
func (n *Node) Close() { n.nic.Close() }

// Crash kills the node: its NIC falls silent — every incoming frame is
// dropped, nothing is transmitted, all QPs stop responding. To its RDMA
// peers it is indistinguishable from a host that lost power: outstanding
// and future requests against it time out through Go-Back-N until the
// requester exhausts its retries (StatusRetryExceeded), which is exactly
// how the offload engine's replica failure detector observes a pool death.
// Region contents are retained only so that a post-mortem Peek can inspect
// them; they are NOT reachable over RDMA and are discarded by Restart.
func (n *Node) Crash() {
	n.mu.Lock()
	n.crashed = true
	n.mu.Unlock()
	n.nic.SetDead(true)
}

// Crashed reports whether the node is currently crashed.
func (n *Node) Crashed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed
}

// Restart reboots a crashed node: the NIC re-attaches to the fabric with no
// QPs and no regions — pool memory is volatile, so everything it hosted is
// gone, and the control plane must re-allocate regions and re-wire QPs
// before the node serves again. Frames addressed to pre-crash QPNs are
// silently ignored (the QPN space is not reused across the restart).
func (n *Node) Restart() {
	n.mu.Lock()
	n.crashed = false
	n.regions = make(map[uint16]region)
	n.nextVA = 0x4000_0000
	n.fence = 0 // fencing state is as volatile as the memory it guards
	n.mu.Unlock()
	n.nic.Reset()
	n.nic.SetDead(false)
}

// AllocRegion allocates and registers a size-byte region under the given
// region id and returns its descriptor for the Setup payload.
func (n *Node) AllocRegion(id uint16, size int) (core.RegionInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.regions[id]; dup {
		return core.RegionInfo{}, fmt.Errorf("memnode: region %d already exists", id)
	}
	buf := make([]byte, size)
	// Each region carries its own DMA lock so Peek/Poke (used by tests and
	// tools) synchronize with NIC writes without serializing DMA across
	// regions — with per-QP NIC locking, engines now stream to different
	// regions of the same pool node in parallel.
	rmu := new(sync.Mutex)
	mr := n.nic.RegisterMRLocked(n.nextVA, buf, rmu)
	mr.SetFenceFloor(n.fence) // regions allocated after a fence inherit it
	info := core.RegionInfo{ID: id, Base: n.nextVA, Size: uint64(size), RKey: mr.RKey}
	n.regions[id] = region{info: info, buf: buf, mu: rmu, mr: mr}
	n.nextVA += uint64(size) + 0x1000 // guard gap
	return info, nil
}

// Fence raises the node's fencing floor to epoch: every inbound RDMA WRITE
// must from now on carry a BTH fencing epoch >= epoch, or it is
// NAKed with wire.SyndromeNAKFenced and never lands. This is the pool half
// of split-brain protection — the control plane bumps the floor at every
// replica before a promoted standby serves, so a partitioned-but-alive old
// primary's writes bounce instead of corrupting state. Epochs are monotone:
// fencing below the current floor returns core.ErrFenced (the caller is
// itself stale). Reads are never fenced.
func (n *Node) Fence(epoch uint16) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed {
		return fmt.Errorf("memnode: fence: node crashed")
	}
	if epoch < n.fence {
		return fmt.Errorf("memnode: fence epoch %d below current floor %d: %w", epoch, n.fence, core.ErrFenced)
	}
	n.fence = epoch
	for _, r := range n.regions {
		r.mr.SetFenceFloor(epoch)
	}
	return nil
}

// FenceEpoch returns the node's current fencing floor.
func (n *Node) FenceEpoch() uint16 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fence
}

// Peek copies length bytes at offset off of region id, for tests and tools.
func (n *Node) Peek(id uint16, off uint64, length int) ([]byte, error) {
	n.mu.Lock()
	r, ok := n.regions[id]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("memnode: no region %d", id)
	}
	if off+uint64(length) > uint64(len(r.buf)) {
		return nil, fmt.Errorf("memnode: peek [%d,%d) outside region %d", off, off+uint64(length), id)
	}
	out := make([]byte, length)
	r.mu.Lock()
	copy(out, r.buf[off:])
	r.mu.Unlock()
	return out, nil
}

// Poke writes data at offset off of region id, for tests that pre-populate
// the pool.
func (n *Node) Poke(id uint16, off uint64, data []byte) error {
	n.mu.Lock()
	r, ok := n.regions[id]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("memnode: no region %d", id)
	}
	if off+uint64(len(data)) > uint64(len(r.buf)) {
		return fmt.Errorf("memnode: poke [%d,%d) outside region %d", off, off+uint64(len(data)), id)
	}
	r.mu.Lock()
	copy(r.buf[off:], data)
	r.mu.Unlock()
	return nil
}

// Regions lists the allocated regions for the Setup payload.
func (n *Node) Regions() []core.RegionInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []core.RegionInfo
	for _, r := range n.regions {
		out = append(out, r.info)
	}
	return out
}
