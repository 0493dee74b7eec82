// Package kv implements a FASTER-style key-value store (§7 of the paper):
// a lock-free hash index over a hybrid log whose mutable tail lives in
// memory and whose read-only cold region spills to an IDevice — the storage
// interface FASTER exposes and the exact point where the paper plugs in
// Cowbird ("We adapt FASTER to use Cowbird by instantiating an IDevice").
//
// The store supports concurrent sessions (one per application thread) with
// asynchronous reads from the cold region: Read returns StatusPending when
// the record lives on the device, and CompletePending drives the I/O —
// mirroring FASTER's pending-operation model and the §7 integration
// pattern (issue async I/O, poll_add, poll_wait periodically).
package kv

import (
	"errors"
	"sync"
	"time"
)

// Token identifies an asynchronous device operation within a session.
type Token uint64

// Device is the kv view of FASTER's IDevice: byte-addressable asynchronous
// storage for the read-only portion of the hybrid log. Implementations
// include local memory, a simulated SATA SSD, one-sided RDMA to a memory
// pool, and Cowbird (package devices).
type Device interface {
	// Session returns the per-thread issuing context. Sessions must be
	// usable concurrently with each other but are not themselves
	// goroutine-safe.
	Session(threadID int) DeviceSession
	// Size reports the device capacity in bytes.
	Size() uint64
}

// DeviceSession issues asynchronous I/O for one thread.
type DeviceSession interface {
	// ReadAsync fetches len(dst) bytes at off into dst. dst must stay
	// valid until the returned token completes.
	ReadAsync(off uint64, dst []byte) (Token, error)
	// WriteAsync stores src at off. src must stay valid until completion.
	WriteAsync(off uint64, src []byte) (Token, error)
	// Poll returns up to max completed tokens, waiting at most timeout
	// (0 polls exactly once). The slice is the session's to reuse: it is
	// valid until the next Poll.
	Poll(max int, timeout time.Duration) []Token
}

// ErrDeviceBounds reports an out-of-range device access.
var ErrDeviceBounds = errors.New("kv: device access out of bounds")

// LocalDevice is an in-memory Device: the paper's "purely local memory"
// upper-bound baseline, and the workhorse for unit tests.
type LocalDevice struct {
	mu  sync.Mutex
	buf []byte
}

// NewLocalDevice returns a device backed by size bytes of local memory.
func NewLocalDevice(size uint64) *LocalDevice {
	return &LocalDevice{buf: make([]byte, size)}
}

// Size implements Device.
func (d *LocalDevice) Size() uint64 { return uint64(len(d.buf)) }

// Session implements Device.
func (d *LocalDevice) Session(threadID int) DeviceSession {
	return &localSession{d: d}
}

type localSession struct {
	d      *LocalDevice
	next   Token
	done   []Token
	polled []Token // Poll's reused return slice
}

func (s *localSession) op(off uint64, n int, read bool, buf []byte) (Token, error) {
	if off+uint64(n) > uint64(len(s.d.buf)) {
		return 0, ErrDeviceBounds
	}
	s.d.mu.Lock()
	if read {
		copy(buf, s.d.buf[off:])
	} else {
		copy(s.d.buf[off:], buf)
	}
	s.d.mu.Unlock()
	s.next++
	t := s.next
	s.done = append(s.done, t)
	return t, nil
}

func (s *localSession) ReadAsync(off uint64, dst []byte) (Token, error) {
	return s.op(off, len(dst), true, dst)
}

func (s *localSession) WriteAsync(off uint64, src []byte) (Token, error) {
	return s.op(off, len(src), false, src)
}

func (s *localSession) Poll(max int, _ time.Duration) []Token {
	n := min(len(s.done), max)
	s.polled = append(s.polled[:0], s.done[:n]...)
	// Shift the remainder down instead of re-slicing past it, so done keeps
	// its backing array and appending to it stops allocating.
	s.done = s.done[:copy(s.done, s.done[n:])]
	return s.polled
}
