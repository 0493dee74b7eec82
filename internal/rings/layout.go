// Package rings implements Cowbird's compute-side data organization (§4.2
// of the paper): a fixed-entry request metadata ring, variable-length
// request and response data rings, and a packed bookkeeping block, all laid
// out in one contiguous registered buffer so the offload engine can probe
// and update them with single RDMA operations (requirement R3).
//
// Concurrency model. The paper relies on x86-TSO plus PCIe ordering: the
// client publishes an entry by writing rw_type last, and the engine's DMA
// reads observe a consistent prefix. Go's memory model offers no such
// guarantee for plain concurrent byte access, so each queue set carries a
// mutex shared with its memory region: client operations and the NIC's DMA
// copies serialize on it. This is a memory-safety shim, not protocol
// locking — the client/engine protocol remains lock-free (requirement R2),
// and the CPU cost of the real lock-free sequence is what internal/perfsim
// models.
package rings

import (
	"encoding/binary"
	"errors"
)

// Sizes of the fixed structures, in bytes.
const (
	// MetaEntrySize is the size of one request metadata entry (Table 3:
	// rw_type 16 b + req_addr 64 b + resp_addr 64 b + length 32 b +
	// region_id 16 b = 192 b).
	MetaEntrySize = 24

	// GreenSize is the client-written half of the bookkeeping block
	// (metaTail, reqDataTail, respDataTail, respDataHead), readable by the
	// engine with a single RDMA read.
	GreenSize = 32

	// RedSize is the engine-written half (metaHead, reqDataHead,
	// writeProgress, readProgress, heartbeat), updatable with a single
	// RDMA write.
	RedSize = 40

	// BookkeepingSize is the full packed bookkeeping block.
	BookkeepingSize = GreenSize + RedSize
)

// OpType is the rw_type field of a metadata entry. Zero means the entry is
// not yet valid; it is always the last field written (§4.3).
type OpType uint16

// Request types.
const (
	OpInvalid OpType = 0
	OpRead    OpType = 1
	OpWrite   OpType = 2
)

// String names the op type.
func (t OpType) String() string {
	switch t {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpInvalid:
		return "INVALID"
	}
	return "UNKNOWN"
}

// Layout describes the geometry of one queue set.
type Layout struct {
	MetaEntries   int // capacity of the request metadata ring
	ReqDataBytes  int // capacity of the request (write payload) data ring
	RespDataBytes int // capacity of the response data ring
}

// DefaultLayout returns a geometry suitable for the paper's workloads.
func DefaultLayout() Layout {
	return Layout{MetaEntries: 1024, ReqDataBytes: 1 << 20, RespDataBytes: 1 << 20}
}

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	if l.MetaEntries <= 0 || l.ReqDataBytes <= 0 || l.RespDataBytes <= 0 {
		return errors.New("rings: all layout capacities must be positive")
	}
	return nil
}

// GreenOffset returns the byte offset of the green bookkeeping half.
func (l Layout) GreenOffset() int { return 0 }

// RedOffset returns the byte offset of the red bookkeeping half.
func (l Layout) RedOffset() int { return GreenSize }

// MetaOffset returns the byte offset of metadata entry slot i.
func (l Layout) MetaOffset(i int) int { return BookkeepingSize + i*MetaEntrySize }

// ReqDataOffset returns the byte offset of the request data ring.
func (l Layout) ReqDataOffset() int { return BookkeepingSize + l.MetaEntries*MetaEntrySize }

// RespDataOffset returns the byte offset of the response data ring.
func (l Layout) RespDataOffset() int { return l.ReqDataOffset() + l.ReqDataBytes }

// Total returns the size of the whole queue-set buffer.
func (l Layout) Total() int { return l.RespDataOffset() + l.RespDataBytes }

// Entry is a decoded request metadata entry (Table 3).
type Entry struct {
	Type     OpType
	ReqAddr  uint64 // read: address in the memory pool; write: address in compute-node memory
	RespAddr uint64 // read: address in compute-node memory; write: address in the memory pool
	Length   uint32
	RegionID uint16
}

// EncodeEntry serializes e into b (at least MetaEntrySize bytes), writing
// rw_type last so a concurrent reader never sees a valid type with torn
// fields.
func EncodeEntry(e Entry, b []byte) {
	binary.LittleEndian.PutUint64(b[2:10], e.ReqAddr)
	binary.LittleEndian.PutUint64(b[10:18], e.RespAddr)
	binary.LittleEndian.PutUint32(b[18:22], e.Length)
	binary.LittleEndian.PutUint16(b[22:24], e.RegionID)
	binary.LittleEndian.PutUint16(b[0:2], uint16(e.Type))
}

// DecodeEntry parses one metadata entry.
func DecodeEntry(b []byte) Entry {
	return Entry{
		Type:     OpType(binary.LittleEndian.Uint16(b[0:2])),
		ReqAddr:  binary.LittleEndian.Uint64(b[2:10]),
		RespAddr: binary.LittleEndian.Uint64(b[10:18]),
		Length:   binary.LittleEndian.Uint32(b[18:22]),
		RegionID: binary.LittleEndian.Uint16(b[22:24]),
	}
}

// Green is the client-maintained half of the bookkeeping block. All values
// are monotonic; positions within a ring are value mod capacity.
type Green struct {
	MetaTail     uint64 // next metadata slot to fill
	ReqDataTail  uint64 // bytes appended to the request data ring
	RespDataTail uint64 // bytes reserved in the response data ring
	RespDataHead uint64 // bytes of response data consumed and freed
}

// Red is the engine-maintained half: head pointers freeing client space and
// the per-type completion progress counters that, because Cowbird
// guarantees per-type linearizability, fully determine the set of completed
// responses (§4.2).
//
// Heartbeat is the engine's lease: a counter the engine bumps with every
// red-block write (pointer updates renew the lease for free) and, when
// idle, with periodic heartbeat-only writes. The compute node reads it with
// plain local loads; when it stalls past the lease deadline the engine is
// declared dead and a standby may take over (internal/ha). Because the red
// block is all engine soft state reconstructed from this durable copy, the
// heartbeat rides in the same single RDMA write as the pointers (R3).
type Red struct {
	MetaHead      uint64 // metadata entries consumed by the engine
	ReqDataHead   uint64 // request-data bytes of the writes the engine retired
	WriteProgress uint64 // sequence number of the last completed write
	ReadProgress  uint64 // sequence number of the last completed read
	Heartbeat     uint64 // engine lease counter (internal/ha failure detector)
}

// EncodeGreen serializes g into b (at least GreenSize bytes).
func EncodeGreen(g Green, b []byte) {
	binary.LittleEndian.PutUint64(b[0:8], g.MetaTail)
	binary.LittleEndian.PutUint64(b[8:16], g.ReqDataTail)
	binary.LittleEndian.PutUint64(b[16:24], g.RespDataTail)
	binary.LittleEndian.PutUint64(b[24:32], g.RespDataHead)
}

// DecodeGreen parses the green half.
func DecodeGreen(b []byte) Green {
	return Green{
		MetaTail:     binary.LittleEndian.Uint64(b[0:8]),
		ReqDataTail:  binary.LittleEndian.Uint64(b[8:16]),
		RespDataTail: binary.LittleEndian.Uint64(b[16:24]),
		RespDataHead: binary.LittleEndian.Uint64(b[24:32]),
	}
}

// EncodeRed serializes r into b (at least RedSize bytes).
func EncodeRed(r Red, b []byte) {
	binary.LittleEndian.PutUint64(b[0:8], r.MetaHead)
	binary.LittleEndian.PutUint64(b[8:16], r.ReqDataHead)
	binary.LittleEndian.PutUint64(b[16:24], r.WriteProgress)
	binary.LittleEndian.PutUint64(b[24:32], r.ReadProgress)
	binary.LittleEndian.PutUint64(b[32:40], r.Heartbeat)
}

// DecodeRed parses the red half.
func DecodeRed(b []byte) Red {
	return Red{
		MetaHead:      binary.LittleEndian.Uint64(b[0:8]),
		ReqDataHead:   binary.LittleEndian.Uint64(b[8:16]),
		WriteProgress: binary.LittleEndian.Uint64(b[16:24]),
		ReadProgress:  binary.LittleEndian.Uint64(b[24:32]),
		Heartbeat:     binary.LittleEndian.Uint64(b[32:40]),
	}
}

// ReserveRing computes the placement of a length-byte object in a ring of
// the given capacity at monotonic cursor pos. Objects never wrap: if the
// object would straddle the ring end, the cursor first skips to the next
// ring origin. Both the client and the offload engine run this same
// function, so they agree on placements without communicating them.
func ReserveRing(pos uint64, length uint32, capacity int) (start, next uint64) {
	cap64 := uint64(capacity)
	off := pos % cap64
	if off+uint64(length) > cap64 {
		pos += cap64 - off // skip the tail fragment
	}
	return pos, pos + uint64(length)
}
