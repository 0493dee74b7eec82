package devices

import (
	"fmt"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/kv"
)

// CowbirdDevice adapts the Cowbird client library to FASTER's IDevice, the
// §7 integration: "each FASTER thread calls through the device
// poll_create() to create a notification group. After issuing an I/O
// operation with async_read() or async_write(), a thread immediately calls
// poll_add() ... and invokes poll_wait() periodically to complete pending
// requests."
//
// Thread mapping: kv sessions with threadID in [0, N-2] use the matching
// Cowbird queue set; the store's internal flusher session (threadID -1)
// uses the last queue set. Create the core.Client with Threads =
// appThreads + 1.
type CowbirdDevice struct {
	client *core.Client
	region core.RegionInfo
}

// NewCowbirdDevice wraps client for I/O against the given remote region.
func NewCowbirdDevice(client *core.Client, region core.RegionInfo) *CowbirdDevice {
	return &CowbirdDevice{client: client, region: region}
}

// Size implements kv.Device.
func (d *CowbirdDevice) Size() uint64 { return d.region.Size }

// Session implements kv.Device.
func (d *CowbirdDevice) Session(threadID int) kv.DeviceSession {
	idx := threadID
	if idx < 0 {
		idx = d.client.Threads() - 1
	}
	th, err := d.client.Thread(idx)
	if err != nil {
		panic(fmt.Sprintf("devices: no Cowbird queue set for thread %d: %v", threadID, err))
	}
	return &cowbirdSession{d: d, th: th, group: th.PollCreate(), byReq: make(map[core.ReqID]kv.Token)}
}

type cowbirdSession struct {
	d     *CowbirdDevice
	th    *core.Thread
	group *core.PollGroup
	next  kv.Token
	byReq map[core.ReqID]kv.Token
	toks  []kv.Token // Poll's reused return slice
}

func (s *cowbirdSession) ReadAsync(off uint64, dst []byte) (kv.Token, error) {
	id, err := s.th.AsyncRead(s.d.region.ID, off, dst)
	if err != nil {
		return 0, err
	}
	if err := s.group.Add(id); err != nil {
		return 0, err
	}
	s.next++
	s.byReq[id] = s.next
	return s.next, nil
}

func (s *cowbirdSession) WriteAsync(off uint64, src []byte) (kv.Token, error) {
	id, err := s.th.AsyncWrite(s.d.region.ID, src, off)
	if err != nil {
		return 0, err
	}
	if err := s.group.Add(id); err != nil {
		return 0, err
	}
	s.next++
	s.byReq[id] = s.next
	return s.next, nil
}

func (s *cowbirdSession) Poll(max int, timeout time.Duration) []kv.Token {
	ids := s.group.Wait(max, timeout)
	s.toks = s.toks[:0]
	for _, id := range ids {
		if tok, ok := s.byReq[id]; ok {
			s.toks = append(s.toks, tok)
			delete(s.byReq, id)
		}
	}
	return s.toks
}
