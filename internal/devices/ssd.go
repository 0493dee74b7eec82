// Package devices implements kv.Device backends for every storage layer
// the paper evaluates FASTER against (§8): a simulated SATA SSD (FASTER's
// default secondary storage), one-sided RDMA in synchronous and
// asynchronous flavors (the compute node does all transfer work), and
// Cowbird (the offload engines do it).
package devices

import (
	"sync"
	"time"

	"cowbird/internal/kv"
	"cowbird/internal/pace"
)

// SSDDevice simulates a SATA SSD: a fixed per-I/O latency plus
// size/bandwidth transfer time, with I/Os completing in submission order
// through a single dispatch queue (one SATA channel). The paper's testbed
// uses a 6 Gb/s SATA device; NewSATASSD matches that.
type SSDDevice struct {
	mu       sync.Mutex
	buf      []byte
	latency  time.Duration
	bwBps    float64
	lastDone time.Time // when the channel frees up

	sessMu   sync.Mutex
	sessions []*ssdSession
}

// NewSSDDevice creates a simulated SSD.
func NewSSDDevice(size uint64, latency time.Duration, bandwidthBytesPerSec float64) *SSDDevice {
	return &SSDDevice{
		buf:     make([]byte, size),
		latency: latency,
		bwBps:   bandwidthBytesPerSec,
	}
}

// NewSATASSD matches the paper's secondary-storage baseline: a SATA SSD
// with 6 Gb/s (750 MB/s) throughput and ~80 µs access latency.
func NewSATASSD(size uint64) *SSDDevice {
	return NewSSDDevice(size, 80*time.Microsecond, 750e6)
}

// Size implements kv.Device.
func (d *SSDDevice) Size() uint64 { return uint64(len(d.buf)) }

// Session implements kv.Device.
func (d *SSDDevice) Session(threadID int) kv.DeviceSession {
	// A completion is a device latency away, not a spin: straight to blocks.
	s := &ssdSession{d: d, wait: pace.New(nil, 0, 5*time.Microsecond)}
	d.sessMu.Lock()
	d.sessions = append(d.sessions, s)
	d.sessMu.Unlock()
	return s
}

type ssdSession struct {
	d      *SSDDevice
	next   kv.Token
	polled []kv.Token // Poll's reused return slice
	wait   *pace.Waiter

	mu   sync.Mutex
	done []kv.Token
}

// op performs the data movement immediately (the byte content is correct
// as of submission order under the device mutex) but delivers the
// completion only after the simulated device time has passed.
func (s *ssdSession) op(off uint64, read bool, buf []byte) (kv.Token, error) {
	d := s.d
	d.mu.Lock()
	if off+uint64(len(buf)) > uint64(len(d.buf)) {
		d.mu.Unlock()
		return 0, kv.ErrDeviceBounds
	}
	if read {
		copy(buf, d.buf[off:])
	} else {
		copy(d.buf[off:], buf)
	}
	// Serialize I/Os through the single channel.
	now := time.Now()
	start := d.lastDone
	if start.Before(now) {
		start = now
	}
	finish := start.Add(d.latency + time.Duration(float64(len(buf))/d.bwBps*1e9)*time.Nanosecond)
	d.lastDone = finish
	d.mu.Unlock()

	s.next++
	tok := s.next
	time.AfterFunc(time.Until(finish), func() {
		s.mu.Lock()
		s.done = append(s.done, tok)
		s.mu.Unlock()
	})
	return tok, nil
}

func (s *ssdSession) ReadAsync(off uint64, dst []byte) (kv.Token, error) {
	return s.op(off, true, dst)
}

func (s *ssdSession) WriteAsync(off uint64, src []byte) (kv.Token, error) {
	return s.op(off, false, src)
}

func (s *ssdSession) Poll(max int, timeout time.Duration) []kv.Token {
	s.wait.Start(timeout)
	for {
		s.mu.Lock()
		n := min(len(s.done), max)
		s.polled = append(s.polled[:0], s.done[:n]...)
		s.done = s.done[:copy(s.done, s.done[n:])]
		s.mu.Unlock()
		if n > 0 || timeout <= 0 || !s.wait.Idle() {
			return s.polled
		}
	}
}
