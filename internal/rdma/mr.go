package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// MR is a registered memory region: a byte buffer pinned at a virtual
// address, addressable remotely via its RKey and locally via its LKey.
//
// If Lock is non-nil, the NIC holds it while DMA touches Buf — responder-
// side reads and writes, and requester-side copies (payload emission and
// read-response landing), which per-QP locking no longer serializes against each other. Regions shared between application threads
// and the offload engine — the Cowbird queue sets — set it; see package
// rings for why this memory-safety shim exists in the Go port.
type MR struct {
	Base uint64 // virtual address of Buf[0]
	Buf  []byte
	LKey uint32
	RKey uint32
	Lock sync.Locker

	// fenceMin is the region's fencing floor: the minimum epoch (carried
	// in BTH.PKey) an inbound WRITE must present. Writes below
	// the floor are NAKed with SyndromeNAKFenced instead of landing, so a
	// deposed ("zombie") writer cannot corrupt state after a failover
	// bumps the epoch. Zero — the default — admits everything, keeping
	// unfenced deployments byte-identical. READs are never fenced: they
	// cannot corrupt state, and a zombie must still be able to observe the
	// world it lost. Checked lock-free on the responder datapath.
	fenceMin atomic.Uint32
}

// SetFenceFloor raises the region's fencing floor. Lowering is ignored:
// epochs are monotone, and racing promoters must not be able to roll the
// floor back.
func (m *MR) SetFenceFloor(epoch uint16) {
	for {
		cur := m.fenceMin.Load()
		if uint32(epoch) <= cur {
			return
		}
		if m.fenceMin.CompareAndSwap(cur, uint32(epoch)) {
			return
		}
	}
}

// FenceFloor returns the region's current fencing floor.
func (m *MR) FenceFloor() uint16 { return uint16(m.fenceMin.Load()) }

// admitsEpoch reports whether a write carrying the given fencing epoch may
// land in the region.
func (m *MR) admitsEpoch(epoch uint16) bool {
	return uint32(epoch) >= m.fenceMin.Load()
}

// lockDMA acquires the region's DMA lock, if any.
func (m *MR) lockDMA() {
	if m.Lock != nil {
		m.Lock.Lock()
	}
}

// unlockDMA releases the region's DMA lock, if any.
func (m *MR) unlockDMA() {
	if m.Lock != nil {
		m.Lock.Unlock()
	}
}

// Errors returned by memory translation.
var (
	ErrNoMR        = errors.New("rdma: address not covered by a registered MR")
	ErrBadRKey     = errors.New("rdma: unknown rkey")
	ErrOutOfBounds = errors.New("rdma: access outside MR bounds")
)

// contains reports whether [va, va+n) lies inside the region.
func (m *MR) contains(va uint64, n uint32) bool {
	return va >= m.Base && va+uint64(n) <= m.Base+uint64(len(m.Buf)) && va+uint64(n) >= va
}

// slice returns the buffer backing [va, va+n).
func (m *MR) slice(va uint64, n uint32) []byte {
	off := va - m.Base
	return m.Buf[off : off+uint64(n)]
}

// translateLocal resolves a local virtual-address range to its region and
// backing bytes. Lock-free: it reads the published registration snapshot,
// so it is safe from any goroutine.
func (n *NIC) translateLocal(va uint64, length uint32) (*MR, []byte, error) {
	for _, m := range n.mrSnap.Load().mrs {
		if m.contains(va, length) {
			return m, m.slice(va, length), nil
		}
	}
	return nil, nil, fmt.Errorf("%w: va=0x%x len=%d", ErrNoMR, va, length)
}

// translateRemoteKey resolves an rkey-authorized access, as the responder
// side does for incoming READ/WRITE packets. Lock-free: it reads the
// published registration snapshot, so it is safe from any goroutine.
func (n *NIC) translateRemoteKey(rkey uint32, va uint64, length uint32) (*MR, []byte, error) {
	m, ok := n.mrSnap.Load().byRKey[rkey]
	if !ok {
		return nil, nil, fmt.Errorf("%w: 0x%x", ErrBadRKey, rkey)
	}
	if !m.contains(va, length) {
		return nil, nil, fmt.Errorf("%w: rkey=0x%x va=0x%x len=%d", ErrOutOfBounds, rkey, va, length)
	}
	return m, m.slice(va, length), nil
}
