package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"cowbird/internal/pace"
)

// This file implements a simplified form of FASTER's checkpoint/recover:
// the hash index is serialized together with the log frontier, and the log
// contents themselves are already durable on the IDevice (the cold region
// is written by the flusher as it spills). Recovery reopens a store over
// the same device: every record is then cold and reachable through the
// restored index.
//
// Unlike FASTER's CPR, checkpointing here is a stop-the-world operation:
// the caller must ensure no session mutates the store while Checkpoint
// runs. That trade keeps the mechanism small while preserving the property
// the §7 case study relies on — a restart does not lose the dataset that
// was spilled to disaggregated memory.

// checkpointMagic identifies a checkpoint stream.
const checkpointMagic = 0xC0B1_D0C5

// Checkpoint flushes the entire log to the device and writes a recovery
// image of the index to w. No session may mutate the store concurrently.
func (st *Store) Checkpoint(w io.Writer) error {
	if err := st.log.flushAll(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var hdr [28]byte
	binary.LittleEndian.PutUint32(hdr[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(st.index)))
	binary.LittleEndian.PutUint64(hdr[8:], st.log.tail.Load())
	binary.LittleEndian.PutUint64(hdr[16:], st.log.pageSize)
	binary.LittleEndian.PutUint32(hdr[24:], 0) // reserved
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// Sparse index dump: (slot, addr) pairs for non-empty slots.
	var rec [12]byte
	count := 0
	for i := range st.index {
		addr := st.index[i].Load()
		if addr == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(rec[0:], uint32(i))
		binary.LittleEndian.PutUint64(rec[4:], addr)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		count++
	}
	_ = count
	return bw.Flush()
}

// Recover opens a store over dev from a checkpoint previously written by
// Checkpoint against the same device contents. All records start cold.
func Recover(dev Device, cfg Config, r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	var hdr [28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("kv: reading checkpoint header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != checkpointMagic {
		return nil, fmt.Errorf("kv: not a checkpoint stream")
	}
	indexSize := int(binary.LittleEndian.Uint32(hdr[4:]))
	tail := binary.LittleEndian.Uint64(hdr[8:])
	pageSize := binary.LittleEndian.Uint64(hdr[16:])
	if cfg.PageSize != 0 && cfg.PageSize != pageSize {
		return nil, fmt.Errorf("kv: checkpoint page size %d != config %d", pageSize, cfg.PageSize)
	}
	cfg.PageSize = pageSize
	cfg.IndexSize = indexSize
	st, err := Open(dev, cfg)
	if err != nil {
		return nil, err
	}
	if len(st.index) != indexSize {
		st.Close()
		return nil, fmt.Errorf("kv: index size %d not a power of two in checkpoint", indexSize)
	}
	// Position the log so every checkpointed byte is cold: head == tail ==
	// flushed == the checkpointed frontier (page-aligned by flushAll).
	st.log.tail.Store(tail)
	st.log.head.Store(tail)
	st.log.flushed.Store(tail)
	var rec [12]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err == io.EOF {
			break
		} else if err != nil {
			st.Close()
			return nil, fmt.Errorf("kv: reading checkpoint index: %w", err)
		}
		slot := binary.LittleEndian.Uint32(rec[0:])
		addr := binary.LittleEndian.Uint64(rec[4:])
		if int(slot) >= len(st.index) || addr >= tail {
			st.Close()
			return nil, fmt.Errorf("kv: corrupt checkpoint entry (slot %d, addr %#x)", slot, addr)
		}
		st.index[slot].Store(addr)
	}
	return st, nil
}

// flushAll pads the tail to the next page boundary and waits until the
// flusher has made everything durable.
func (l *hybridLog) flushAll() error {
	w := pace.New(l.stop, 0, 0)
	// Seal the current page by skipping the tail to its end (the pad bytes
	// are holes no chain references).
	for {
		a := l.tail.Load()
		if a%l.pageSize == 0 {
			break
		}
		next := (a/l.pageSize + 1) * l.pageSize
		if next-l.head.Load() > l.memSize {
			if err := l.makeRoom(next, w); err != nil {
				return err
			}
			continue
		}
		if l.tail.CompareAndSwap(a, next) {
			break
		}
	}
	target := l.tail.Load()
	deadline := time.Now().Add(30 * time.Second)
	for l.flushed.Load() < target {
		if err := l.err(); err != nil {
			return err
		}
		if !w.Block(50 * time.Microsecond) {
			return fmt.Errorf("kv: store closed during checkpoint")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("kv: flush stalled during checkpoint (flushed %d < tail %d)",
				l.flushed.Load(), target)
		}
	}
	return nil
}
