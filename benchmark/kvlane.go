package main

import (
	"fmt"

	"cowbird/internal/kv"
	"cowbird/internal/ycsb"
)

// kvRecords, kvValueSize and kvMaxPending shape kv_ycsb_b: 200 k records of
// 64 B values (17 MiB of log against a 1 MiB in-memory log and a 1 MiB client
// cache, so reads are hot, cached-cold and fabric-cold all at once), and up
// to 16 cold reads pending per session.
const (
	kvRecords    = 200_000
	kvValueSize  = 64
	kvKeySize    = 8
	kvMaxPending = 16
	// kvIssueBurst bounds the synchronous operations one issue call performs,
	// so completions of pending cold reads are observed promptly even while
	// every new operation is a hit.
	kvIssueBurst = 32
)

// kvLane is one application session on the FASTER-style store: YCSB-B over a
// scrambled Zipfian keyspace, cold reads completed with CompletePending(false)
// — the store's "poll periodically" pattern.
type kvLane struct {
	clk  clock
	sess *kv.Session
	gen  *ycsb.Generator
	pat  pattern

	versions []uint32 // shadow: upserts per record
	value    []byte

	pend    []kvPending
	busy    int
	lastEnd int64 // completion time of the previous synchronous op = start of the next
	err     error
	hot     int64 // reads answered from the in-memory log
	cold    int64 // reads that went to the device
}

type kvPending struct {
	busy    bool
	idx     int64
	version uint32
	t0      int64
	span    int32
}

func newKVLane(clk clock, sess *kv.Session, gen *ycsb.Generator, pat pattern) *kvLane {
	return &kvLane{
		clk: clk, sess: sess, gen: gen, pat: pat,
		versions: make([]uint32, kvRecords),
		value:    make([]byte, kvValueSize),
		pend:     make([]kvPending, kvMaxPending),
	}
}

const kvSpace = 0x4B56 // pattern space of the KV keyspace

func (l *kvLane) inflight() int { return l.busy }
func (l *kvLane) fatal() error  { return l.err }

func (l *kvLane) oldest() int64 {
	t := int64(1) << 62
	for i := range l.pend {
		if l.pend[i].busy && l.pend[i].t0 < t {
			t = l.pend[i].t0
		}
	}
	return t
}

// load inserts version 0 of every record; the log flusher pushes all but the
// in-memory tail through the Cowbird device.
func (l *kvLane) load() (bytes int64, err error) {
	for i := int64(0); i < kvRecords; i++ {
		l.pat.fill(l.value, kvSpace, uint32(i), 0)
		if err := l.sess.Upsert(l.gen.Key(i), l.value); err != nil {
			return bytes, fmt.Errorf("load record %d: %w", i, err)
		}
		bytes += 16 + kvKeySize + kvValueSize
	}
	return bytes, nil
}

func (l *kvLane) harvest(rec *recorder, tr *tracer, root int32) bool {
	if l.busy == 0 || l.err != nil {
		return false
	}
	var ps int32 = -1
	if tr != nil {
		ps = tr.begin(spanKVCompletePend, root, 0, l.clk.now())
	}
	results, err := l.sess.CompletePending(false)
	rec.polls++
	now := l.clk.now()
	if tr != nil {
		tr.end(ps, now)
	}
	if err != nil {
		l.err = fmt.Errorf("complete pending: %w", err)
		rec.failed += int64(l.busy)
		return false
	}
	for i := range results {
		p, ok := results[i].Ctx.(*kvPending)
		if !ok || !p.busy {
			l.err = fmt.Errorf("pending read completed with a foreign context")
			return false
		}
		if results[i].Status == kv.StatusOK && l.pat.check(results[i].Value, kvSpace, uint32(p.idx), p.version) && len(results[i].Value) == kvValueSize {
			rec.complete(now - p.t0)
		} else {
			rec.failed++
		}
		if tr != nil {
			tr.end(p.span, now)
		}
		p.busy = false
		l.busy--
	}
	l.lastEnd = now
	return len(results) > 0
}

func (l *kvLane) freePending() *kvPending {
	for i := range l.pend {
		if !l.pend[i].busy {
			return &l.pend[i]
		}
	}
	return nil
}

func (l *kvLane) issue(rec *recorder, tr *tracer, root int32) bool {
	if l.err != nil {
		return false
	}
	progressed := false
	l.lastEnd = l.clk.now()
	for n := 0; n < kvIssueBurst && l.busy < kvMaxPending && l.err == nil; n++ {
		// One clock read per synchronous operation: within a burst an
		// operation starts when the previous one ended, so drawing the key
		// is part of it.
		t0 := l.lastEnd
		var opSpan, gs int32 = -1, -1
		var opID uint32
		if tr != nil {
			opID = rec.opID()
			opSpan = tr.begin(spanOp, root, opID, t0)
			gs = tr.begin(spanYCSBNext, root, opID, t0)
		}
		idx := l.gen.NextIndex()
		op := l.gen.NextOp()
		key := l.gen.Key(idx)
		if tr != nil {
			tr.end(gs, l.clk.now())
		}
		l.run(rec, tr, root, opSpan, opID, t0, idx, op, key)
		progressed = true
	}
	return progressed
}

// run performs one drawn operation and records its completion if it is
// synchronous (an upsert, or a read answered from the in-memory log).
func (l *kvLane) run(rec *recorder, tr *tracer, root, opSpan int32, opID uint32, t0 int64, idx int64, op ycsb.Op, key []byte) {
	rec.attempted++
	var cs int32 = -1
	if op == ycsb.OpUpdate {
		version := l.versions[idx] + 1
		l.pat.fill(l.value, kvSpace, uint32(idx), version)
		if tr != nil {
			cs = tr.begin(spanKVUpsert, root, opID, l.clk.now())
		}
		err := l.sess.Upsert(key, l.value)
		now := l.clk.now()
		if tr != nil {
			tr.end(cs, now)
			tr.end(opSpan, now)
		}
		l.lastEnd = now
		if err != nil {
			rec.failed++
			l.err = fmt.Errorf("upsert record %d: %w", idx, err)
			return
		}
		l.versions[idx] = version
		rec.complete(now - t0)
		return
	}
	p := l.freePending()
	*p = kvPending{idx: idx, version: l.versions[idx], t0: t0, span: opSpan}
	if tr != nil {
		cs = tr.begin(spanKVReadHot, root, opID, l.clk.now())
	}
	val, status, err := l.sess.Read(key, p)
	now := l.clk.now()
	l.lastEnd = now
	switch {
	case err != nil:
		rec.failed++
		l.err = fmt.Errorf("read record %d: %w", idx, err)
	case status == kv.StatusPending:
		p.busy = true
		l.busy++
		l.cold++
		if tr != nil {
			tr.setKind(cs, spanKVReadCold)
			tr.end(cs, now)
		}
		return // the op span stays open until CompletePending delivers it
	case status == kv.StatusOK && len(val) == kvValueSize && l.pat.check(val, kvSpace, uint32(idx), p.version):
		l.hot++
		rec.complete(now - t0)
	default:
		rec.failed++ // not found, or wrong bytes
	}
	if tr != nil {
		tr.end(cs, now)
		tr.end(opSpan, now)
	}
}
