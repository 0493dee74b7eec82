package devices

import (
	"fmt"
	"sync"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/kv"
	"cowbird/internal/pace"
	"cowbird/internal/rdma"
)

// RDMAMode selects the one-sided RDMA baseline flavor.
type RDMAMode int

// Baseline flavors from §8's methodology.
const (
	// ModeSync issues one verb at a time and busy-polls for its
	// completion ("synchronous one-sided RDMA": the thread blocks).
	ModeSync RDMAMode = iota
	// ModeAsync posts verbs and harvests completions later through Poll,
	// overlapping communication and computation on the compute node's CPU.
	ModeAsync
)

// RDMADevice is the one-sided RDMA IDevice baseline: the compute node
// performs every data transfer itself with RDMA verbs ("this baseline does
// not assume any remote compute capabilities, so the compute node is
// responsible for all data transfers", §8).
type RDMADevice struct {
	local  *rdma.NIC
	pool   *rdma.NIC
	region core.RegionInfo
	mode   RDMAMode

	slotSize int
	numSlots int

	mu     sync.Mutex
	nextVA uint64
	psn    uint32
}

// NewRDMADevice creates the baseline device. maxIO bounds the largest
// single I/O (use at least the store's page size).
func NewRDMADevice(local, pool *rdma.NIC, region core.RegionInfo, mode RDMAMode, maxIO int) *RDMADevice {
	if maxIO <= 0 {
		maxIO = 1 << 16
	}
	return &RDMADevice{
		local:    local,
		pool:     pool,
		region:   region,
		mode:     mode,
		slotSize: maxIO,
		numSlots: 32,
		nextVA:   0x2000_0000,
	}
}

// Size implements kv.Device.
func (d *RDMADevice) Size() uint64 { return d.region.Size }

// Session implements kv.Device: it creates a connected QP pair and a
// registered staging arena for this thread.
func (d *RDMADevice) Session(threadID int) kv.DeviceSession {
	d.mu.Lock()
	va := d.nextVA
	d.nextVA += uint64(d.slotSize*d.numSlots) + 0x1000
	localPSN := 10_000 + d.psn
	poolPSN := 20_000 + d.psn
	d.psn += 1000
	d.mu.Unlock()

	cq := rdma.NewCQ()
	lQP, _ := rdma.ConnectPair(d.local, cq, localPSN, d.pool, poolPSN)

	arena := make([]byte, d.slotSize*d.numSlots)
	d.local.RegisterMR(va, arena)
	s := &rdmaSession{
		d: d, qp: lQP, cq: cq, arena: arena, arenaVA: va,
		ops: make([]rdmaOp, d.numSlots),
		// The compute thread polls its own CQ: 64 yields, then 2 µs blocks.
		wait: pace.New(nil, 64, 2*time.Microsecond),
	}
	for i := 0; i < d.numSlots; i++ {
		s.free = append(s.free, i)
	}
	return s
}

type rdmaOp struct {
	wrID  uint64 // 0: the slot is idle
	token kv.Token
	dst   []byte // read destination (nil for writes)
	n     int
}

type rdmaSession struct {
	d       *RDMADevice
	qp      *rdma.QP
	cq      *rdma.CQ
	arena   []byte
	arenaVA uint64
	free    []int
	next    kv.Token
	nextWR  uint64
	ops     []rdmaOp // by staging slot; a WR id names its slot (wrID % numSlots)
	done    []kv.Token
	polled  []kv.Token // Poll's reused return slice
	wait    *pace.Waiter
}

// drain harvests CQEs into the done list, freeing slots.
func (s *rdmaSession) drain() {
	var buf [32]rdma.CQE
	n := s.cq.PollInto(buf[:])
	for _, c := range buf[:n] {
		slot := int(c.WRID % uint64(s.d.numSlots))
		op := &s.ops[slot]
		if op.wrID != c.WRID {
			continue
		}
		if op.dst != nil {
			start := slot * s.d.slotSize
			copy(op.dst, s.arena[start:start+op.n])
		}
		s.free = append(s.free, slot)
		s.done = append(s.done, op.token)
		*op = rdmaOp{}
	}
}

// slotWait acquires a staging slot, draining completions while full.
func (s *rdmaSession) slotWait() int {
	s.wait.Start(0)
	for len(s.free) == 0 {
		s.drain()
		if len(s.free) == 0 {
			s.wait.Idle()
		}
	}
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return slot
}

func (s *rdmaSession) post(verb rdma.Verb, off uint64, buf []byte, dst []byte) (kv.Token, error) {
	if len(buf) > s.d.slotSize {
		return 0, fmt.Errorf("devices: I/O of %d bytes exceeds slot size %d", len(buf), s.d.slotSize)
	}
	if off+uint64(len(buf)) > s.d.region.Size {
		return 0, kv.ErrDeviceBounds
	}
	slot := s.slotWait()
	start := slot * s.d.slotSize
	if verb == rdma.VerbWrite {
		copy(s.arena[start:], buf)
	}
	s.next++
	s.nextWR++
	tok := s.next
	wrID := s.nextWR*uint64(s.d.numSlots) + uint64(slot)
	s.ops[slot] = rdmaOp{wrID: wrID, token: tok, dst: dst, n: len(buf)}
	err := s.qp.PostSend(rdma.WorkRequest{
		ID: wrID, Verb: verb,
		LocalVA: s.arenaVA + uint64(start), Length: uint32(len(buf)),
		RemoteVA: s.d.region.Base + off, RKey: s.d.region.RKey,
	})
	if err != nil {
		return 0, err
	}
	if s.d.mode == ModeSync {
		// Busy-poll until THIS operation completes: the synchronous
		// baseline issues one request at a time and blocks (§8.1).
		s.wait.Start(0)
		for s.drain(); s.ops[slot].wrID == wrID; s.drain() {
			s.wait.Idle()
		}
	}
	return tok, nil
}

func (s *rdmaSession) ReadAsync(off uint64, dst []byte) (kv.Token, error) {
	return s.post(rdma.VerbRead, off, dst, dst)
}

func (s *rdmaSession) WriteAsync(off uint64, src []byte) (kv.Token, error) {
	return s.post(rdma.VerbWrite, off, src, nil)
}

func (s *rdmaSession) Poll(max int, timeout time.Duration) []kv.Token {
	s.wait.Start(timeout)
	for {
		s.drain()
		n := min(len(s.done), max)
		s.polled = append(s.polled[:0], s.done[:n]...)
		// Shift the remainder down, so done keeps its backing array.
		s.done = s.done[:copy(s.done, s.done[n:])]
		if n > 0 || timeout <= 0 || !s.wait.Idle() {
			return s.polled
		}
	}
}
