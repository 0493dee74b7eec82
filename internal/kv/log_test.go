package kv

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

var errInjectedWrite = errors.New("injected write failure")

// failOnceDevice is a LocalDevice whose sessions refuse the first write at
// offset failAt; every other access succeeds.
type failOnceDevice struct {
	*LocalDevice
	failAt uint64
	failed atomic.Bool
}

func (d *failOnceDevice) Session(threadID int) DeviceSession {
	return &failOnceSession{DeviceSession: d.LocalDevice.Session(threadID), d: d}
}

type failOnceSession struct {
	DeviceSession
	d *failOnceDevice
}

func (s *failOnceSession) WriteAsync(off uint64, src []byte) (Token, error) {
	if off == s.d.failAt && s.d.failed.CompareAndSwap(false, true) {
		return 0, errInjectedWrite
	}
	return s.DeviceSession.WriteAsync(off, src)
}

// TestFailedFlushIsNeverFlushed: the device refuses the flush of one log
// page. The store must surface that as an error from Upsert and RMW once the
// log needs the page's memory back — not count the page durable and let the
// head pass it — and every key an Upsert acknowledged must still read back
// its own value: no read returns bytes that were never written.
func TestFailedFlushIsNeverFlushed(t *testing.T) {
	cfg := smallConfig()
	cfg.MemSize = 4 * cfg.PageSize
	dev := &failOnceDevice{LocalDevice: NewLocalDevice(1 << 22), failAt: 3 * cfg.PageSize}
	st, err := Open(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	s := st.NewSession(0)

	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%050d", i, i)) }
	acked := 0
	for ; acked < 5000; acked++ {
		if err = s.Upsert(key(acked), val(acked)); err != nil {
			break
		}
	}
	if !errors.Is(err, errInjectedWrite) {
		t.Fatalf("after %d upserts: err = %v, want the device's write failure", acked, err)
	}
	if err := s.Upsert(key(acked), val(acked)); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("second upsert after the failure: err = %v, want it again", err)
	}
	if _, err := s.RMW(key(acked), nil, func([]byte) []byte { return val(acked) }); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("RMW after the failure: err = %v, want the device's write failure", err)
	}
	if head := st.HeadAddress(); head > dev.failAt {
		t.Fatalf("head %#x passed the page at %#x that was never written", head, dev.failAt)
	}
	for i := 0; i < acked; i++ {
		got, status := readSync(t, s, key(i))
		if status != StatusOK || string(got) != string(val(i)) {
			t.Fatalf("key %d of %d acknowledged: got %q/%v", i, acked, got, status)
		}
	}
}
