package rdma

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// PcapTap records every frame forwarded by a Fabric into the classic
// libpcap file format (LINKTYPE_ETHERNET), so Cowbird traffic — probes,
// recycled read responses, bookkeeping writes — can be inspected with
// Wireshark or tcpdump, which both dissect RoCEv2 natively.
//
// Install with Fabric.SetTap; remove by setting a nil tap. Capture runs on
// the delivery path after the interposer and the loss predicate, on the
// sender's goroutine, so what it sees is exactly what the devices receive. Capture
// copies the frame before returning, so recycled frames are safe to tap.
type PcapTap struct {
	mu     sync.Mutex
	w      io.Writer
	start  time.Time
	frames int64
	err    error
}

// pcap magic for microsecond-resolution little-endian captures.
const pcapMagic = 0xa1b2c3d4

// NewPcapTap writes a pcap global header to w and returns the tap.
func NewPcapTap(w io.Writer) (*PcapTap, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], 2)      // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4)      // version minor
	binary.LittleEndian.PutUint32(hdr[16:], 65535) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:], 1)     // LINKTYPE_ETHERNET
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &PcapTap{w: w, start: time.Now()}, nil
}

// Capture records one frame. Safe for concurrent use; errors are sticky
// and reported by Err.
func (t *PcapTap) Capture(frame []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	elapsed := time.Since(t.start)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(elapsed/time.Second))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(elapsed%time.Second/time.Microsecond))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(frame)))
	if _, err := t.w.Write(hdr[:]); err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(frame); err != nil {
		t.err = err
		return
	}
	t.frames++
}

// Frames reports how many frames were captured.
func (t *PcapTap) Frames() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames
}

// Err reports the first write error, if any.
func (t *PcapTap) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// SetTap installs a capture tap on the fabric's forwarding path (nil
// removes it).
func (f *Fabric) SetTap(t *PcapTap) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tap = t
	f.publishLocked()
}

// PcapRecord is one captured frame with its capture-relative timestamp.
type PcapRecord struct {
	Offset time.Duration
	Frame  []byte
}

// ReadPcap parses a capture written by PcapTap (classic little-endian
// microsecond pcap, Ethernet link type) and returns its records.
func ReadPcap(r io.Reader) ([]PcapRecord, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("rdma: pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagic {
		return nil, fmt.Errorf("rdma: not a pcap file (or wrong endianness/resolution)")
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != 1 {
		return nil, fmt.Errorf("rdma: pcap link type %d, want 1 (Ethernet)", lt)
	}
	var out []PcapRecord
	var rec [16]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("rdma: pcap record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:])
		usec := binary.LittleEndian.Uint32(rec[4:])
		caplen := binary.LittleEndian.Uint32(rec[8:])
		if caplen > 1<<20 {
			return nil, fmt.Errorf("rdma: implausible pcap record of %d bytes", caplen)
		}
		frame := make([]byte, caplen)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("rdma: pcap record body: %w", err)
		}
		out = append(out, PcapRecord{
			Offset: time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Frame:  frame,
		})
	}
}
