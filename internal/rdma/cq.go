package rdma

import (
	"sync"

	"cowbird/internal/container"
)

// Status is the completion status of a work request.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRetryExceeded
	StatusRemoteAccessError
	StatusLocalError
	StatusFlushed // QP destroyed with the WR outstanding
	StatusFenced  // responder NAKed a write from a stale fencing epoch
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRetryExceeded:
		return "RETRY_EXCEEDED"
	case StatusRemoteAccessError:
		return "REMOTE_ACCESS_ERROR"
	case StatusLocalError:
		return "LOCAL_ERROR"
	case StatusFlushed:
		return "FLUSHED"
	case StatusFenced:
		return "FENCED"
	}
	return "UNKNOWN"
}

// Verb identifies the operation type of a work request.
type Verb uint8

// Work request verbs.
const (
	VerbWrite Verb = iota
	VerbRead
)

// String names the verb.
func (v Verb) String() string {
	switch v {
	case VerbWrite:
		return "WRITE"
	case VerbRead:
		return "READ"
	}
	return "UNKNOWN"
}

// CQE is a completion queue entry.
type CQE struct {
	WRID   uint64
	QPN    uint32
	Status Status
	Verb   Verb
	Bytes  uint32
}

// CQ is a completion queue. PollInto is non-blocking, matching ibv_poll_cq;
// the Notify channel supports event-driven consumers (the Cowbird-Spot
// agent). Entries live in a ring, so the steady-state push/PollInto cycle
// neither allocates nor pins completed entries in a resliced backing array.
type CQ struct {
	mu      sync.Mutex
	entries container.Ring[CQE]
	notify  chan struct{}
}

// NewCQ returns an empty completion queue.
func NewCQ() *CQ {
	return &CQ{notify: make(chan struct{}, 1)}
}

// push appends a completion and signals Notify.
func (cq *CQ) push(e CQE) {
	cq.mu.Lock()
	cq.entries.Push(e)
	cq.mu.Unlock()
	select {
	case cq.notify <- struct{}{}:
	default:
	}
}

// PollInto fills dst with completions and returns how many were written.
// It performs no allocation.
func (cq *CQ) PollInto(dst []CQE) int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	n := cq.entries.Len()
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = cq.entries.Pop()
	}
	return n
}

// Len reports the number of pending completions.
func (cq *CQ) Len() int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.entries.Len()
}

// Notify returns a channel that receives a token whenever a completion is
// pushed into an empty-or-nonempty queue. Consumers should drain with
// PollInto after each token; tokens are coalesced.
func (cq *CQ) Notify() <-chan struct{} { return cq.notify }
