package kv

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/pace"
)

// Record layout in the log:
//
//	prev     uint64  // logical address of the previous record in the chain
//	keyLen   uint32  // top bit: tombstone (deletion marker)
//	valLen   uint32
//	key      [keyLen]byte
//	value    [valLen]byte
//
// Records are 8-byte aligned and never cross a page boundary (allocation
// pads to the next page instead), so page flushes always contain whole
// records and cold reads never span pages.
const recordHeader = 16

// tombstoneBit marks a deletion record in the keyLen field.
const tombstoneBit = uint32(1) << 31

func recordSize(keyLen, valLen int) uint64 {
	n := uint64(recordHeader + keyLen + valLen)
	return (n + 7) &^ 7
}

// hybridLog is FASTER's hybrid log: a circular in-memory buffer holding
// [head, tail), with everything below head flushed to the device in page
// units by a background flusher.
type hybridLog struct {
	mem      []byte
	memSize  uint64
	pageSize uint64
	numPages uint64

	tail    atomic.Uint64 // next logical address to allocate
	head    atomic.Uint64 // lowest logical address resident in memory
	flushed atomic.Uint64 // all addresses below are durable on the device

	// failed is the log's sticky failure: the page flush the device
	// refused. The flusher stops there, so flushed (and with it head) never
	// passes a page that was not written, and whatever waits for that
	// frontier returns the error instead (err).
	failed atomic.Pointer[error]

	// pages[i] counts in-flight writers into logical page slot i; the
	// flusher only flushes a page whose writer count is zero and whose end
	// the tail has passed.
	pages []atomic.Int32

	dev     Device
	devSess DeviceSession
	flushMu sync.Mutex // serializes the flusher's device session

	// hazards implements FASTER's epoch protection in hazard-pointer form:
	// a reader publishes the logical address it is copying from memory;
	// makeRoom, after advancing head, waits until no reader is protected
	// below the new head before allocations may reuse that memory. This
	// both prevents torn reads and keeps the Go race detector happy — the
	// reader/overwriter byte ranges never overlap in time.
	hazardMu sync.Mutex
	hazards  []*atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// newHazard registers a reader protection slot (one per session).
func (l *hybridLog) newHazard() *atomic.Uint64 {
	h := new(atomic.Uint64)
	l.hazardMu.Lock()
	l.hazards = append(l.hazards, h)
	l.hazardMu.Unlock()
	return h
}

// hazardsClearBelow reports whether no reader is protected below addr.
func (l *hybridLog) hazardsClearBelow(addr uint64) bool {
	l.hazardMu.Lock()
	defer l.hazardMu.Unlock()
	for _, h := range l.hazards {
		if v := h.Load(); v != 0 && v < addr {
			return false
		}
	}
	return true
}

// logBegin is the first logical address; one page is reserved so that
// address 0 can mean "nil chain pointer".
func (l *hybridLog) begin() uint64 { return l.pageSize }

func newHybridLog(dev Device, memSize, pageSize uint64) (*hybridLog, error) {
	if pageSize == 0 || memSize%pageSize != 0 || memSize/pageSize < 2 {
		return nil, fmt.Errorf("kv: memory size %d must be >= 2 pages of %d", memSize, pageSize)
	}
	l := &hybridLog{
		mem:      make([]byte, memSize),
		memSize:  memSize,
		pageSize: pageSize,
		numPages: memSize / pageSize,
		pages:    make([]atomic.Int32, memSize/pageSize),
		dev:      dev,
		devSess:  dev.Session(-1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.tail.Store(l.begin())
	l.head.Store(l.begin())
	l.flushed.Store(l.begin())
	go l.flushLoop()
	return l, nil
}

func (l *hybridLog) close() {
	close(l.stop)
	<-l.done
}

// err returns the log's sticky flush failure, or nil.
func (l *hybridLog) err() error {
	if e := l.failed.Load(); e != nil {
		return *e
	}
	return nil
}

// physical maps a logical address to its offset in the memory buffer.
func (l *hybridLog) physical(addr uint64) uint64 { return addr % l.memSize }

// alloc reserves n bytes (n <= pageSize) and returns the record's logical
// address. The caller must call release(addr) after the record bytes are
// fully written. alloc waits on w while the log is full, until the flusher
// frees space (back-pressure from a slow device).
func (l *hybridLog) alloc(n uint64, w *pace.Waiter) (uint64, error) {
	if n > l.pageSize {
		return 0, fmt.Errorf("kv: record of %d bytes exceeds page size %d", n, l.pageSize)
	}
	for {
		a := l.tail.Load()
		start := a
		if start%l.pageSize+n > l.pageSize {
			start = (start/l.pageSize + 1) * l.pageSize
		}
		end := start + n
		if end > l.head.Load()+l.memSize {
			if err := l.makeRoom(end, w); err != nil {
				return 0, err
			}
			continue
		}
		slot := (start / l.pageSize) % l.numPages
		l.pages[slot].Add(1)
		if l.tail.CompareAndSwap(a, end) {
			return start, nil
		}
		l.pages[slot].Add(-1)
	}
}

// release marks the record at addr fully written.
func (l *hybridLog) release(addr uint64) {
	l.pages[(addr/l.pageSize)%l.numPages].Add(-1)
}

// makeRoom advances head so an allocation ending at end fits, waiting on w
// for the flusher as needed — or returning its sticky failure, since a
// frontier stuck below needHead will never move.
func (l *hybridLog) makeRoom(end uint64, w *pace.Waiter) error {
	needHead := end - l.memSize
	needHead = (needHead + l.pageSize - 1) / l.pageSize * l.pageSize
	for l.flushed.Load() < needHead {
		if err := l.err(); err != nil {
			return err
		}
		if !w.Block(20 * time.Microsecond) {
			return fmt.Errorf("kv: store closed during allocation")
		}
	}
	for {
		h := l.head.Load()
		if h >= needHead {
			break
		}
		if l.head.CompareAndSwap(h, needHead) {
			break
		}
	}
	// Epoch drain: wait for readers still protected below the new head.
	for !l.hazardsClearBelow(needHead) {
		if !w.Block(5 * time.Microsecond) {
			return fmt.Errorf("kv: store closed during allocation")
		}
	}
	return nil
}

// readInMem copies [addr, addr+len(dst)) from the in-memory region into
// dst under hazard protection. It reports false if the address is (or
// becomes) below head, in which case dst is invalid and the caller must go
// to the device.
func (l *hybridLog) readInMem(hazard *atomic.Uint64, addr uint64, dst []byte) bool {
	hazard.Store(addr)
	defer hazard.Store(0)
	// Re-check after publishing the hazard: if head already passed addr,
	// makeRoom may not have seen our hazard, so the memory is not safe.
	if addr < l.head.Load() {
		return false
	}
	p := l.physical(addr)
	copy(dst, l.mem[p:p+uint64(len(dst))])
	return true
}

// writeRecord fills in a freshly allocated record. prev may be patched
// later (before publication) with patchPrev.
func (l *hybridLog) writeRecord(addr uint64, prev uint64, key, value []byte, tombstone bool) {
	p := l.physical(addr)
	binary.LittleEndian.PutUint64(l.mem[p:], prev)
	kl := uint32(len(key))
	if tombstone {
		kl |= tombstoneBit
	}
	binary.LittleEndian.PutUint32(l.mem[p+8:], kl)
	binary.LittleEndian.PutUint32(l.mem[p+12:], uint32(len(value)))
	copy(l.mem[p+recordHeader:], key)
	copy(l.mem[p+recordHeader+uint64(len(key)):], value)
}

// patchPrev updates the chain pointer of a not-yet-published record.
func (l *hybridLog) patchPrev(addr uint64, prev uint64) {
	binary.LittleEndian.PutUint64(l.mem[l.physical(addr):], prev)
}

// parseRecord decodes a record image (from memory or device).
func parseRecord(buf []byte) (prev uint64, key, value []byte, tombstone, ok bool) {
	if len(buf) < recordHeader {
		return 0, nil, nil, false, false
	}
	prev = binary.LittleEndian.Uint64(buf)
	kl := binary.LittleEndian.Uint32(buf[8:])
	tombstone = kl&tombstoneBit != 0
	kl &^= tombstoneBit
	vl := binary.LittleEndian.Uint32(buf[12:])
	end := recordHeader + uint64(kl) + uint64(vl)
	if uint64(len(buf)) < end {
		return prev, nil, nil, tombstone, false
	}
	key = buf[recordHeader : recordHeader+kl]
	value = buf[recordHeader+kl : end]
	return prev, key, value, tombstone, true
}

// flushLoop writes closed pages to the device in order and advances the
// flushed frontier. A write the device refuses becomes the log's sticky
// failure and ends the loop: the page was never written, so it is never
// counted as flushed.
func (l *hybridLog) flushLoop() {
	defer close(l.done)
	idle := pace.New(l.stop, 0, 0)
	for {
		fp := l.flushed.Load()
		slot := (fp / l.pageSize) % l.numPages
		if l.tail.Load() >= fp+l.pageSize && l.pages[slot].Load() == 0 {
			p := l.physical(fp)
			tok, err := l.devSess.WriteAsync(fp, l.mem[p:p+l.pageSize])
			if err != nil {
				// A fresh variable: storing &err would move err to the heap on
				// every flush, not only on this one.
				failure := fmt.Errorf("kv: flushing the log page at %#x: %w", fp, err)
				l.failed.Store(&failure)
				return
			}
			for {
				done := l.devSess.Poll(16, time.Millisecond)
				found := false
				for _, d := range done {
					if d == tok {
						found = true
					}
				}
				if found {
					break
				}
				select {
				case <-l.stop:
					return
				default:
				}
			}
			l.flushed.Store(fp + l.pageSize)
			continue
		}
		if !idle.Block(20 * time.Microsecond) {
			return
		}
	}
}
