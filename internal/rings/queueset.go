package rings

import (
	"errors"
	"fmt"
	"sync"
)

// Queue-full conditions. The client library surfaces these to the
// application as "retry later" (§4.3: "If, at any point, there is
// insufficient space in any of the queues or buffers, the library will
// return an error indicating that the application should retry later").
var (
	ErrMetaFull     = errors.New("rings: request metadata ring full")
	ErrReqDataFull  = errors.New("rings: request data ring full")
	ErrRespDataFull = errors.New("rings: response data ring full")
	ErrTooLarge     = errors.New("rings: request larger than ring capacity")
	// ErrRedCorrupt is not "retry later": the engine's red block claims to
	// have consumed entries or request data the client never published,
	// which no correct engine writes.
	ErrRedCorrupt = errors.New("rings: red block heads are past the green tails")
)

// QueueSet is one per-hardware-thread set of Cowbird buffers, backed by a
// single contiguous byte buffer meant to be registered as one MR. The
// client side mutates the green half and the ring contents; the offload
// engine mutates the red half (via RDMA writes into the same buffer).
//
// All exported methods take the set's mutex; see the package comment for
// why the mutex exists.
type QueueSet struct {
	mu     sync.Mutex
	buf    []byte
	base   uint64
	layout Layout
}

// NewQueueSet allocates a queue set whose buffer will live at virtual
// address base.
func NewQueueSet(base uint64, l Layout) (*QueueSet, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &QueueSet{buf: make([]byte, l.Total()), base: base, layout: l}, nil
}

// Bytes returns the backing buffer, for MR registration.
func (q *QueueSet) Bytes() []byte { return q.buf }

// Base returns the buffer's virtual address.
func (q *QueueSet) Base() uint64 { return q.base }

// Layout returns the geometry.
func (q *QueueSet) Layout() Layout { return q.layout }

// Mutex returns the lock that DMA into this buffer must hold. The NIC's
// memory region takes it during remote reads/writes of the buffer.
func (q *QueueSet) Mutex() *sync.Mutex { return &q.mu }

// GreenVA returns the virtual address of the green bookkeeping half — what
// the engine probes (§5.2 Phase II).
func (q *QueueSet) GreenVA() uint64 { return q.base + uint64(q.layout.GreenOffset()) }

// RedVA returns the virtual address of the red bookkeeping half — what the
// engine updates in Phase IV.
func (q *QueueSet) RedVA() uint64 { return q.base + uint64(q.layout.RedOffset()) }

// MetaVA returns the virtual address of metadata slot i.
func (q *QueueSet) MetaVA(i int) uint64 { return q.base + uint64(q.layout.MetaOffset(i)) }

func (q *QueueSet) green() Green     { return DecodeGreen(q.buf[q.layout.GreenOffset():]) }
func (q *QueueSet) red() Red         { return DecodeRed(q.buf[q.layout.RedOffset():]) }
func (q *QueueSet) setGreen(g Green) { EncodeGreen(g, q.buf[q.layout.GreenOffset():]) }

// pointers returns both halves, or ErrRedCorrupt if a red head is past its
// green tail.
func (q *QueueSet) pointers() (Green, Red, error) {
	g, r := q.green(), q.red()
	if r.MetaHead > g.MetaTail || r.ReqDataHead > g.ReqDataTail {
		return g, r, ErrRedCorrupt
	}
	return g, r, nil
}

// Green returns a snapshot of the client-side pointers.
func (q *QueueSet) Green() Green {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.green()
}

// Red returns a snapshot of the engine-side pointers.
func (q *QueueSet) Red() Red {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.red()
}

// Progress returns the completion counters (write, read) from the red half.
func (q *QueueSet) Progress() (writeSeq, readSeq uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r := q.red()
	return r.WriteProgress, r.ReadProgress
}

// Heartbeat returns the engine lease counter from the red half — what the
// internal/ha failure detector samples with plain local loads.
func (q *QueueSet) Heartbeat() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.red().Heartbeat
}

// PendingEntries reports how many metadata entries the engine has not yet
// consumed.
func (q *QueueSet) PendingEntries() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.green().MetaTail - q.red().MetaHead)
}

// PushRead appends a read request: fetch [reqAddr, reqAddr+length) from
// region regionID in the memory pool into this queue set's response ring.
// It returns the compute-node virtual address where the response will land.
//
// The issue sequence follows §4.3: reserve a metadata slot and a response
// slot, populate the five Table 3 fields, and publish by writing rw_type
// last.
func (q *QueueSet) PushRead(reqAddr uint64, length uint32, regionID uint16) (respVA uint64, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if int(length) > q.layout.RespDataBytes {
		return 0, fmt.Errorf("%w: read of %d bytes into %d-byte response ring", ErrTooLarge, length, q.layout.RespDataBytes)
	}
	g, r, err := q.pointers()
	if err != nil {
		return 0, err
	}
	if g.MetaTail-r.MetaHead >= uint64(q.layout.MetaEntries) {
		return 0, ErrMetaFull
	}
	start, next := ReserveRing(g.RespDataTail, length, q.layout.RespDataBytes)
	if next-g.RespDataHead > uint64(q.layout.RespDataBytes) {
		return 0, ErrRespDataFull
	}
	respVA = q.base + uint64(q.layout.RespDataOffset()) + start%uint64(q.layout.RespDataBytes)
	slot := int(g.MetaTail % uint64(q.layout.MetaEntries))
	EncodeEntry(Entry{
		Type:     OpRead,
		ReqAddr:  reqAddr,
		RespAddr: respVA,
		Length:   length,
		RegionID: regionID,
	}, q.buf[q.layout.MetaOffset(slot):])
	g.MetaTail++
	g.RespDataTail = next
	q.setGreen(g)
	return respVA, nil
}

// PushWrite appends a write request: copy data into the request data ring
// and ask the engine to transfer it to [respAddr, respAddr+len(data)) in
// region regionID of the memory pool.
func (q *QueueSet) PushWrite(data []byte, respAddr uint64, regionID uint16) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	length := uint32(len(data))
	if len(data) > q.layout.ReqDataBytes {
		return fmt.Errorf("%w: write of %d bytes into %d-byte request ring", ErrTooLarge, len(data), q.layout.ReqDataBytes)
	}
	g, r, err := q.pointers()
	if err != nil {
		return err
	}
	if g.MetaTail-r.MetaHead >= uint64(q.layout.MetaEntries) {
		return ErrMetaFull
	}
	start, next := ReserveRing(g.ReqDataTail, length, q.layout.ReqDataBytes)
	if next-r.ReqDataHead > uint64(q.layout.ReqDataBytes) {
		return ErrReqDataFull
	}
	off := q.layout.ReqDataOffset() + int(start%uint64(q.layout.ReqDataBytes))
	copy(q.buf[off:], data)
	reqVA := q.base + uint64(off)
	slot := int(g.MetaTail % uint64(q.layout.MetaEntries))
	EncodeEntry(Entry{
		Type:     OpWrite,
		ReqAddr:  reqVA,
		RespAddr: respAddr,
		Length:   length,
		RegionID: regionID,
	}, q.buf[q.layout.MetaOffset(slot):])
	g.MetaTail++
	g.ReqDataTail = next
	q.setGreen(g)
	return nil
}

// ReadResponse copies the length bytes of completed response data at respVA
// into dst. The caller must know (from the read-progress counter) that the
// response has completed.
func (q *QueueSet) ReadResponse(respVA uint64, dst []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	off := respVA - q.base
	copy(dst, q.buf[off:])
}

// FreeResponse releases one completed read's reservation. Reads complete in
// issue order (per-type linearizability), so calling FreeResponse once per
// read, in order, with that read's length keeps client and reservation
// cursors in agreement.
func (q *QueueSet) FreeResponse(length uint32) {
	q.mu.Lock()
	defer q.mu.Unlock()
	g := q.green()
	_, next := ReserveRing(g.RespDataHead, length, q.layout.RespDataBytes)
	g.RespDataHead = next
	q.setGreen(g)
}
