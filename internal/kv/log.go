package kv

import (
	"bytes"
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

// mutableFraction is the share of the in-memory log above the read-only
// offset. FASTER defaults to 0.9; a half keeps most hot updates in place
// (about 60 % of kv_ycsb_b's) and leaves the flusher half of memory —
// 8 of 16 pages there — between the offset and the next allocation's need.
const mutableFraction = 0.5

// hybridLog is FASTER's hybrid log: a circular in-memory buffer holding
// [head, tail), with everything below head flushed to the device in page
// units by a background flusher. Memory holds three regions:
//
//	[head, readOnly)  read-only: immutable, flushed page by page
//	[readOnly, tail)  mutable: a key's chain-head record here is updated in place
//	below head        on the device only
//
// The read-only offset trails the tail by mutableFraction of memory, rounded
// down to a page, and only moves up.
type hybridLog struct {
	mem      []byte
	memSize  uint64
	pageSize uint64
	numPages uint64
	mutable  uint64 // bytes the read-only offset trails the tail by

	tail     atomic.Uint64 // next logical address to allocate
	readOnly atomic.Uint64 // records below are immutable
	head     atomic.Uint64 // lowest logical address resident in memory
	flushed  atomic.Uint64 // all addresses below are durable on the device

	// drained trails head: no reader is protected below it, so allocation
	// may reuse the memory of everything below it. An allocator that saw
	// only head move could overwrite a record a reader is still copying,
	// while the allocator that moved head waits out that reader.
	drained atomic.Uint64

	// failed is the log's sticky failure: the page flush the device
	// refused. The flusher stops there, so flushed (and with it head) never
	// passes a page that was not written, and whatever waits for that
	// frontier returns the error instead (err).
	failed atomic.Pointer[error]

	// pages[i] counts in-flight writers into logical page slot i: appenders
	// between alloc and release, and in-place writers (pinMutable). The
	// flusher only flushes a page whose end the read-only offset and the tail
	// have passed and whose writer count is zero.
	pages []atomic.Int32

	appends      atomic.Uint64 // records allocated
	pagesFlushed atomic.Uint64

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

// newHybridLog returns a log whose offsets all start at frontier (0: the
// log's beginning), with its flusher running. The log is empty above the
// frontier and durable below it.
func newHybridLog(dev Device, memSize, pageSize, frontier uint64) (*hybridLog, error) {
	if pageSize == 0 || memSize%pageSize != 0 || memSize/pageSize < 2 {
		return nil, fmt.Errorf("kv: memory size %d must be >= 2 pages of %d", memSize, pageSize)
	}
	l := &hybridLog{
		mem:      make([]byte, memSize),
		memSize:  memSize,
		pageSize: pageSize,
		numPages: memSize / pageSize,
		mutable:  uint64(float64(memSize) * mutableFraction),
		pages:    make([]atomic.Int32, memSize/pageSize),
		dev:      dev,
		devSess:  dev.Session(-1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if frontier == 0 {
		frontier = l.begin()
	}
	// Before the flusher starts: it reads the offsets one at a time, so
	// moving them under it could pair an old flushed frontier with a new
	// tail and flush a page of empty memory over durable data.
	l.tail.Store(frontier)
	l.readOnly.Store(frontier)
	l.head.Store(frontier)
	l.drained.Store(frontier)
	l.flushed.Store(frontier)
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
		// Shifting before the room check matters when start skips to a new
		// page: the flusher must be free to write the pages makeRoom waits
		// for. Shifting early is always safe; it only ends in-place updates.
		l.shiftReadOnly(end)
		if end > l.drained.Load()+l.memSize {
			if err := l.makeRoom(end, w); err != nil {
				return 0, err
			}
			continue
		}
		slot := (start / l.pageSize) % l.numPages
		l.pages[slot].Add(1)
		if l.tail.CompareAndSwap(a, end) {
			l.appends.Add(1)
			return start, nil
		}
		l.pages[slot].Add(-1)
	}
}

// shiftReadOnly moves the read-only offset up to where a tail at end puts
// it: mutable bytes below end, rounded down to a page.
func (l *hybridLog) shiftReadOnly(end uint64) {
	if end <= l.mutable {
		return
	}
	l.shiftReadOnlyTo((end - l.mutable) / l.pageSize * l.pageSize)
}

func (l *hybridLog) shiftReadOnlyTo(to uint64) {
	for {
		ro := l.readOnly.Load()
		if ro >= to || l.readOnly.CompareAndSwap(ro, to) {
			return
		}
	}
}

// pinMutable pins the page of the record at addr for an in-place write and
// reports whether the record is still mutable; if it is, the caller writes
// and then calls release(addr). This is one side of the handshake on the
// page's writer count: the count goes up before the offset is re-read, and
// whoever needs the page to hold still (the flusher, a lock-free reader in
// immutable) reads the offset and then the count. So either it sees this
// writer, or the offset had passed addr before this writer looked.
func (l *hybridLog) pinMutable(addr uint64) bool {
	c := &l.pages[(addr/l.pageSize)%l.numPages]
	c.Add(1)
	if addr >= l.readOnly.Load() {
		return true
	}
	c.Add(-1)
	return false
}

// immutable reports whether no in-place write to the in-memory record at
// addr is under way or can start: the other side of pinMutable's handshake.
func (l *hybridLog) immutable(addr uint64) bool {
	return addr < l.readOnly.Load() && l.pages[(addr/l.pageSize)%l.numPages].Load() == 0
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
	for {
		d := l.drained.Load()
		if d >= needHead || l.drained.CompareAndSwap(d, needHead) {
			return nil
		}
	}
}

// readRecord copies the whole in-memory record at addr into dst (grown if
// short) under hazard protection and returns the copy. It reports false if
// the address is (or becomes) below head, in which case the caller must go
// to the device. An immutable record is copied lock-free; any other is
// copied holding mu, the lock its chain's in-place writers hold, so the copy
// never holds half of an update. Only the record's own bytes are read,
// never its neighbours', which may belong to a record another session is
// still writing.
func (l *hybridLog) readRecord(hazard *atomic.Uint64, mu *sync.Mutex, addr uint64, dst []byte) ([]byte, bool, error) {
	hazard.Store(addr)
	defer hazard.Store(0)
	// Re-check after publishing the hazard: if head already passed addr,
	// makeRoom may not have seen our hazard, so the memory is not safe.
	if addr < l.head.Load() {
		return dst, false, nil
	}
	if !l.immutable(addr) {
		mu.Lock()
		defer mu.Unlock()
	}
	p := l.physical(addr)
	kl, vl, _ := peekLens(l.mem[p : p+recordHeader])
	need := recordSize(int(kl), int(vl))
	if p%l.pageSize+need > l.pageSize {
		return dst, false, fmt.Errorf("kv: corrupt record at %#x", addr)
	}
	if uint64(cap(dst)) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	copy(dst, l.mem[p:p+need])
	return dst, true, nil
}

// updateInPlace rewrites the record at addr with value if it is key's
// record, is still mutable and has room for value, and reports whether it
// did. The caller holds the lock of the record's chain, so no other
// in-place writer runs and no reader copies the record meanwhile.
func (l *hybridLog) updateInPlace(addr uint64, key, value []byte, tombstone bool) bool {
	if addr < l.readOnly.Load() || !l.pinMutable(addr) {
		return false
	}
	// Pinned: the page can be neither flushed nor evicted, so the header
	// and key read here are the record's.
	p := l.physical(addr)
	kl, vl, _ := peekLens(l.mem[p : p+recordHeader])
	ok := int(kl) == len(key) && recordSize(len(key), len(value)) <= recordSize(int(kl), int(vl)) &&
		bytes.Equal(l.mem[p+recordHeader:p+recordHeader+uint64(kl)], key)
	if ok {
		l.writeValue(addr, len(key), value, tombstone)
	}
	l.release(addr)
	return ok
}

// writeRecord fills in a freshly allocated record. prev may be patched
// later (before publication) with patchPrev.
func (l *hybridLog) writeRecord(addr uint64, prev uint64, key, value []byte, tombstone bool) {
	p := l.physical(addr)
	binary.LittleEndian.PutUint64(l.mem[p:], prev)
	copy(l.mem[p+recordHeader:], key)
	l.writeValue(addr, len(key), value, tombstone)
}

// writeValue writes a record's lengths and value: what an in-place update
// changes, and a fresh record's all but its chain pointer and key.
func (l *hybridLog) writeValue(addr uint64, keyLen int, value []byte, tombstone bool) {
	p := l.physical(addr)
	kl := uint32(keyLen)
	if tombstone {
		kl |= tombstoneBit
	}
	binary.LittleEndian.PutUint32(l.mem[p+8:], kl)
	binary.LittleEndian.PutUint32(l.mem[p+12:], uint32(len(value)))
	copy(l.mem[p+recordHeader+uint64(keyLen):], value)
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

// flushLoop writes read-only pages to the device in order and advances the
// flushed frontier. A page is flushed once the read-only offset and the tail
// have passed its end and no writer holds it; read in that order, which
// pinMutable's handshake needs, nothing changes the page afterwards, so each
// device address is written exactly once. A write the device refuses becomes
// the log's sticky failure and ends the loop: the page was never written, so
// it is never counted as flushed.
func (l *hybridLog) flushLoop() {
	defer close(l.done)
	idle := pace.New(l.stop, 0, 0)
	for {
		fp := l.flushed.Load()
		end := fp + l.pageSize
		slot := (fp / l.pageSize) % l.numPages
		if l.readOnly.Load() >= end && l.tail.Load() >= end && l.pages[slot].Load() == 0 {
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
			l.pagesFlushed.Add(1)
			l.flushed.Store(end)
			continue
		}
		if !idle.Block(20 * time.Microsecond) {
			return
		}
	}
}
