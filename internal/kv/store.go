package kv

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"cowbird/internal/pace"
)

// Status is the result of a Read.
type Status int

// Read outcomes.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusPending // record is in the cold region; CompletePending delivers it
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusPending:
		return "PENDING"
	}
	return "UNKNOWN"
}

// Config sizes a store.
type Config struct {
	IndexSize    int    // hash index entries; rounded up to a power of two
	MemSize      uint64 // in-memory log bytes (the paper's "local memory")
	PageSize     uint64 // flush unit
	DiskReadSize int    // speculative cold-read size (>= max record size is ideal)
	MaxInflight  int    // per-session cap on pending cold reads
}

// DefaultConfig returns a small test-friendly configuration.
func DefaultConfig() Config {
	return Config{
		IndexSize:    1 << 16,
		MemSize:      1 << 22,
		PageSize:     1 << 16,
		DiskReadSize: 4096,
		MaxInflight:  64,
	}
}

// Store is a FASTER-style hash KV over a hybrid log.
type Store struct {
	cfg   Config
	index []atomic.Uint64 // chain heads: logical record addresses (0 = empty)
	mask  uint64
	log   *hybridLog
	dev   Device
}

// Open creates a store backed by dev.
func Open(dev Device, cfg Config) (*Store, error) {
	if cfg.IndexSize <= 0 {
		return nil, fmt.Errorf("kv: bad index size %d", cfg.IndexSize)
	}
	size := 1
	for size < cfg.IndexSize {
		size <<= 1
	}
	if cfg.DiskReadSize < recordHeader+16 {
		cfg.DiskReadSize = recordHeader + 16
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	l, err := newHybridLog(dev, cfg.MemSize, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	return &Store{
		cfg:   cfg,
		index: make([]atomic.Uint64, size),
		mask:  uint64(size - 1),
		log:   l,
		dev:   dev,
	}, nil
}

// Close stops the background flusher.
func (st *Store) Close() { st.log.close() }

// TailAddress reports the log tail (for tests and stats).
func (st *Store) TailAddress() uint64 { return st.log.tail.Load() }

// HeadAddress reports the in-memory head (records below it are cold).
func (st *Store) HeadAddress() uint64 { return st.log.head.Load() }

// hash is FNV-1a 64.
func hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (st *Store) slot(key []byte) *atomic.Uint64 {
	return &st.index[hash(key)&st.mask]
}

// ReadResult is a completed cold read. Key and Value point into buffers the
// session owns: they are valid until the session's next CompletePending.
type ReadResult struct {
	Key    []byte
	Value  []byte
	Status Status
	Ctx    any // caller context passed to Read
}

// pendingRead tracks one cold read, in flight or delivered. It owns the
// buffers the read lands in, and is recycled with them.
type pendingRead struct {
	addr  uint64
	key   []byte
	buf   []byte
	ctx   any
	exact bool // buf sized exactly for the record (second-hop read)
}

// Session is a per-thread handle. Sessions are not goroutine-safe; use one
// per thread, like FASTER sessions.
//
// The read path allocates nothing in steady state, FASTER-style: the value
// Read returns and the results CompletePending returns live in buffers the
// session reuses — the value is valid until the session's next Read or RMW,
// the results until its next CompletePending. Copy what must outlive that.
type Session struct {
	st       *Store
	threadID int
	dev      DeviceSession
	hazard   *atomic.Uint64
	wait     *pace.Waiter // the session's waits for log space
	pending  map[Token]*pendingRead
	scratch  []byte

	// Recycling. free holds idle pendingReads with their buffers; delivered
	// holds the ones the last CompletePending's results point into, which
	// return to free when the next one starts. In-flight reads are bounded by
	// MaxInflight and so, within a factor of two, is everything here.
	free      []*pendingRead
	delivered []*pendingRead
	results   []ReadResult
}

// NewSession opens a session for one application thread.
func (st *Store) NewSession(threadID int) *Session {
	return &Session{
		st:       st,
		threadID: threadID,
		dev:      st.dev.Session(threadID),
		hazard:   st.log.newHazard(),
		wait:     pace.New(st.log.stop, 0, 0),
		pending:  make(map[Token]*pendingRead),
		scratch:  make([]byte, st.cfg.DiskReadSize),
	}
}

// Inflight reports the number of pending cold reads.
func (s *Session) Inflight() int { return len(s.pending) }

// Upsert inserts or updates key with value (RCU append, the hybrid-log
// write path: append to the tail, then CAS the index chain head).
func (s *Session) Upsert(key, value []byte) error {
	return s.append(key, value, false)
}

// Delete removes key by appending a tombstone record: readers that reach
// the tombstone report NotFound without walking the older chain.
func (s *Session) Delete(key []byte) error {
	return s.append(key, nil, true)
}

func (s *Session) append(key, value []byte, tombstone bool) error {
	n := recordSize(len(key), len(value))
	addr, err := s.st.log.alloc(n, s.wait)
	if err != nil {
		return err
	}
	slot := s.st.slot(key)
	prev := slot.Load()
	s.st.log.writeRecord(addr, prev, key, value, tombstone)
	for !slot.CompareAndSwap(prev, addr) {
		prev = slot.Load()
		s.st.log.patchPrev(addr, prev)
	}
	s.st.log.release(addr)
	return nil
}

// Read looks up key. If the record chain stays in memory the value is
// returned immediately; if the chain descends into the cold region a device
// read is issued and Read returns StatusPending — the result arrives
// through CompletePending with the given ctx. The returned value is the
// session's scratch: valid until the session's next Read or RMW.
func (s *Session) Read(key []byte, ctx any) ([]byte, Status, error) {
	addr := s.st.slot(key).Load()
	return s.walk(key, addr, ctx)
}

// walk traverses the chain starting at addr.
func (s *Session) walk(key []byte, addr uint64, ctx any) ([]byte, Status, error) {
	for addr != 0 {
		if addr < s.st.log.head.Load() {
			return nil, StatusPending, s.issueColdRead(key, addr, ctx)
		}
		// In-memory lookup is two-step: a published record's header is
		// complete, so read it first, then read exactly the record — never
		// the neighboring bytes, which may belong to a record another
		// session is still writing.
		var hdr [recordHeader]byte
		if !s.st.log.readInMem(s.hazard, addr, hdr[:]) {
			continue // fell below head mid-lookup; retry as cold read
		}
		kl, vl, _ := peekLens(hdr[:])
		need := recordSize(int(kl), int(vl))
		if need > s.st.log.pageSize {
			return nil, StatusNotFound, fmt.Errorf("kv: corrupt record at %#x", addr)
		}
		buf := s.scratch
		if uint64(cap(buf)) < need {
			buf = make([]byte, need)
			s.scratch = buf
		}
		buf = buf[:need]
		if !s.st.log.readInMem(s.hazard, addr, buf) {
			continue
		}
		prev, rkey, rval, tomb, ok := parseRecord(buf)
		if !ok {
			return nil, StatusNotFound, fmt.Errorf("kv: corrupt record at %#x", addr)
		}
		if bytes.Equal(rkey, key) {
			if tomb {
				return nil, StatusNotFound, nil
			}
			return rval, StatusOK, nil
		}
		addr = prev
	}
	return nil, StatusNotFound, nil
}

// peekLens extracts the length fields from a partial record image (the
// tombstone bit is masked off).
func peekLens(buf []byte) (keyLen, valLen uint32, ok bool) {
	if len(buf) < recordHeader {
		return 0, 0, false
	}
	kl := uint32(buf[8]) | uint32(buf[9])<<8 | uint32(buf[10])<<16 | uint32(buf[11])<<24
	vl := uint32(buf[12]) | uint32(buf[13])<<8 | uint32(buf[14])<<16 | uint32(buf[15])<<24
	return kl &^ tombstoneBit, vl, true
}

// issueColdRead starts the asynchronous device read for a chain entry in
// the cold region, on a recycled pendingRead that keeps its own copy of key.
func (s *Session) issueColdRead(key []byte, addr uint64, ctx any) error {
	var pr *pendingRead
	if n := len(s.free); n > 0 {
		pr, s.free = s.free[n-1], s.free[:n-1]
	} else {
		pr = new(pendingRead)
	}
	pr.key = append(pr.key[:0], key...)
	pr.ctx = ctx
	return s.submit(pr, addr, 0)
}

// submit issues pr's device read of the record at addr. size 0 means the
// speculative DiskReadSize. On error pr is recycled.
func (s *Session) submit(pr *pendingRead, addr uint64, size int) error {
	if len(s.pending) >= s.st.cfg.MaxInflight {
		s.recycle(pr)
		return fmt.Errorf("kv: too many pending reads (max %d)", s.st.cfg.MaxInflight)
	}
	pr.addr, pr.exact = addr, size > 0
	if size == 0 {
		size = s.st.cfg.DiskReadSize
	}
	// Clamp to the page the record lives in: records never cross pages.
	ps := s.st.log.pageSize
	if rem := ps - addr%ps; uint64(size) > rem {
		size = int(rem)
	}
	if cap(pr.buf) < size {
		pr.buf = make([]byte, size)
	}
	pr.buf = pr.buf[:size]
	tok, err := s.dev.ReadAsync(addr, pr.buf)
	if err != nil {
		s.recycle(pr)
		return err
	}
	s.pending[tok] = pr
	return nil
}

// recycle returns a pendingRead nothing references any more to the free list.
func (s *Session) recycle(pr *pendingRead) {
	pr.ctx = nil
	s.free = append(s.free, pr)
}

// RMW atomically transforms the value of key: update receives the current
// value (nil if absent) and returns the new one. Like FASTER's RMW, the
// operation may go pending when the current value lives in the cold region;
// the result then arrives through CompletePending (Status OK, Value holding
// the value written, Ctx the caller's ctx).
//
// Atomicity is per-key against concurrent sessions: the new record is
// published with CAS against the chain head observed during the read, and
// the whole operation retries if another session won the race.
func (s *Session) RMW(key []byte, ctx any, update func(old []byte) []byte) (Status, error) {
	for {
		headAddr := s.st.slot(key).Load()
		rc := &rmwCtx{user: ctx, update: update, head: headAddr}
		val, status, err := s.walk(key, headAddr, rc)
		if err != nil {
			return status, err
		}
		if status == StatusPending {
			return StatusPending, nil
		}
		if status == StatusNotFound {
			val = nil
		}
		switch err := s.tryPublishRMW(key, update(val), headAddr); err {
		case nil:
			return StatusOK, nil
		case errRMWConflict:
			// Lost the race; retry with the new chain head.
		default:
			return StatusNotFound, err // the log cannot allocate
		}
	}
}

// rmwCtx tags a pending cold read as the read half of an RMW.
type rmwCtx struct {
	user   any
	update func(old []byte) []byte
	head   uint64
}

// errRMWConflict signals a lost CAS race.
var errRMWConflict = fmt.Errorf("kv: rmw conflict")

// tryPublishRMW appends the updated record and publishes it only if the
// chain head is still the one the value was derived from.
func (s *Session) tryPublishRMW(key, newVal []byte, expectedHead uint64) error {
	n := recordSize(len(key), len(newVal))
	addr, err := s.st.log.alloc(n, s.wait)
	if err != nil {
		return err
	}
	s.st.log.writeRecord(addr, expectedHead, key, newVal, false)
	ok := s.st.slot(key).CompareAndSwap(expectedHead, addr)
	s.st.log.release(addr)
	if !ok {
		// The unreachable record is log garbage, like FASTER's failed-RMW
		// allocations; it disappears when the log truncates.
		return errRMWConflict
	}
	return nil
}

// finishRMW completes the cold half of an RMW: apply the update to the
// value the device returned and publish. A lost race re-runs the whole RMW
// (which may go pending again); done is false in that case.
func (s *Session) finishRMW(res ReadResult, rc *rmwCtx) (out ReadResult, done bool, err error) {
	var old []byte
	if res.Status == StatusOK {
		old = res.Value
	}
	if err := s.tryPublishRMW(res.Key, rc.update(old), rc.head); err == nil {
		return ReadResult{Key: res.Key, Value: rc.update(old), Status: StatusOK, Ctx: rc.user}, true, nil
	}
	status, err := s.RMW(res.Key, rc.user, rc.update)
	if err != nil || status == StatusPending {
		return ReadResult{}, false, err // pending: a fresh cold read carries the RMW now
	}
	return ReadResult{Key: res.Key, Status: StatusOK, Ctx: rc.user}, true, nil
}

// CompletePending drives outstanding cold reads, following chains across
// further cold hops as needed, and returns finished results. With wait
// true it blocks until at least one result is ready (or nothing is
// pending). The returned slice and the keys and values in it are the
// session's: valid until its next CompletePending.
func (s *Session) CompletePending(wait bool) ([]ReadResult, error) {
	for _, pr := range s.delivered {
		s.recycle(pr)
	}
	s.delivered = s.delivered[:0]
	s.results = s.results[:0]
	for {
		if len(s.pending) == 0 {
			return s.results, nil
		}
		timeout := time.Duration(0)
		if wait {
			timeout = time.Millisecond
		}
		toks := s.dev.Poll(64, timeout)
		for _, tok := range toks {
			pr, ok := s.pending[tok]
			if !ok {
				continue // a log-flusher token can never appear here
			}
			delete(s.pending, tok)
			res, done, err := s.resolve(pr)
			if rc, isRMW := res.Ctx.(*rmwCtx); isRMW && done && err == nil {
				res, done, err = s.finishRMW(res, rc)
			}
			if err != nil {
				return s.results, err
			}
			if done {
				s.results = append(s.results, res)
			}
		}
		if !wait || len(s.results) > 0 {
			return s.results, nil
		}
	}
}

// resolve processes one completed cold read: deliver the value (done, with
// pr parked on the delivered list because the result points into it), or
// follow the chain or re-issue a bigger read on the same pendingRead.
func (s *Session) resolve(pr *pendingRead) (res ReadResult, done bool, err error) {
	prev, rkey, rval, tomb, ok := parseRecord(pr.buf)
	if !ok {
		kl, vl, ok2 := peekLens(pr.buf)
		if pr.exact || !ok2 {
			err = fmt.Errorf("kv: corrupt cold record at %#x", pr.addr)
			s.recycle(pr)
			return res, false, err
		}
		return res, false, s.submit(pr, pr.addr, int(recordSize(int(kl), int(vl))))
	}
	res = ReadResult{Key: pr.key, Status: StatusNotFound, Ctx: pr.ctx}
	if bytes.Equal(rkey, pr.key) {
		if !tomb {
			res.Value, res.Status = rval, StatusOK
		}
	} else if prev != 0 {
		// Continue the chain: it may climb back into memory (older in-memory
		// addresses are impossible — chains only descend — so prev is cold).
		return ReadResult{}, false, s.submit(pr, prev, 0)
	}
	s.delivered = append(s.delivered, pr)
	return res, true, nil
}
