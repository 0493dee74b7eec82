package main

import (
	"errors"
	"fmt"
	"runtime"

	"cowbird"
)

// rawLane drives one Cowbird thread directly through the Table 2 API:
// AsyncRead / AsyncWrite into a poll group, PollGroup.WaitErr(n, 0) to
// harvest. Its address space is `regions` regions of `blocksPerRegion`
// blocks of `size` bytes; a shadow version per block says what every read
// must return.
type rawLane struct {
	clk    clock
	th     *cowbird.Thread
	grp    *cowbird.PollGroup
	window int
	size   int

	regions         int
	blocksPerRegion uint32
	space           uint32 // pattern space of region 0; region r uses space+r

	gen      *opGen
	pat      pattern
	versions []uint32 // shadow: writes issued per block, indexed region*blocksPerRegion+block
	wbuf     []byte

	slots    []rawSlot
	busy     int
	retry    rawOp // an op the rings refused, reissued first
	hasRetry bool
	err      error
}

type rawSlot struct {
	id      cowbird.ReqID
	busy    bool
	kind    opKind
	block   uint32 // global block index
	version uint32 // version a read must observe
	t0      int64
	buf     []byte
	span    int32
}

func newRawLane(clk clock, th *cowbird.Thread, seed int64, stream uint64, pat pattern, space uint32,
	regions, regionSize, size, window, writePermille int) *rawLane {
	bpr := regionSize / size
	l := &rawLane{
		clk: clk, th: th, grp: th.PollCreate(), window: window, size: size,
		regions: regions, blocksPerRegion: uint32(bpr), space: space,
		gen: newOpGen(seed, stream, regions*bpr, writePermille), pat: pat,
		versions: make([]uint32, regions*bpr),
		wbuf:     make([]byte, size),
		slots:    make([]rawSlot, window),
	}
	for i := range l.slots {
		l.slots[i].buf = make([]byte, size)
	}
	return l
}

func (l *rawLane) inflight() int { return l.busy }
func (l *rawLane) fatal() error  { return l.err }

func (l *rawLane) oldest() int64 {
	t := int64(1) << 62
	for i := range l.slots {
		if l.slots[i].busy && l.slots[i].t0 < t {
			t = l.slots[i].t0
		}
	}
	return t
}

// locate splits a global block index into (region, byte offset, pattern space, block in region).
func (l *rawLane) locate(block uint32) (region uint16, off uint64, space, local uint32) {
	r := block / l.blocksPerRegion
	local = block % l.blocksPerRegion
	return uint16(r), uint64(local) * uint64(l.size), l.space + r, local
}

func (l *rawLane) harvest(rec *recorder, tr *tracer, root int32) bool {
	if l.busy == 0 || l.err != nil {
		return false
	}
	var ps int32 = -1
	if tr != nil {
		ps = tr.begin(spanCorePoll, root, 0, l.clk.now())
	}
	done, err := l.grp.WaitErr(l.window, 0)
	rec.polls++
	if tr != nil {
		tr.end(ps, l.clk.now())
	}
	if err != nil && !errors.Is(err, cowbird.ErrPoolDegraded) {
		l.err = fmt.Errorf("poll: %w", err)
		rec.failed += int64(l.busy)
		return false
	}
	if len(done) == 0 {
		return false
	}
	now := l.clk.now()
	for _, id := range done {
		s := l.slotOf(id)
		if s == nil {
			l.err = fmt.Errorf("poll returned unknown request %v", id)
			return false
		}
		ok := true
		if s.kind == opRead {
			_, _, space, local := l.locate(s.block)
			ok = l.pat.check(s.buf, space, local, s.version)
		}
		if ok {
			rec.complete(now - s.t0)
		} else {
			rec.failed++
		}
		if tr != nil {
			tr.end(s.span, now)
		}
		s.busy = false
		l.busy--
	}
	return true
}

func (l *rawLane) slotOf(id cowbird.ReqID) *rawSlot {
	for i := range l.slots {
		if l.slots[i].busy && l.slots[i].id == id {
			return &l.slots[i]
		}
	}
	return nil
}

func (l *rawLane) freeSlot() *rawSlot {
	for i := range l.slots {
		if !l.slots[i].busy {
			return &l.slots[i]
		}
	}
	return nil
}

func (l *rawLane) issue(rec *recorder, tr *tracer, root int32) bool {
	progressed := false
	for l.busy < l.window && l.err == nil {
		op := l.retry
		if !l.hasRetry {
			op = l.gen.next()
		}
		s := l.freeSlot()
		region, off, space, local := l.locate(op.block)
		version := l.versions[op.block]
		if op.kind == opWrite {
			version++
			l.pat.fill(l.wbuf, space, local, version)
		}
		t0 := l.clk.now()
		var id cowbird.ReqID
		var err error
		if op.kind == opWrite {
			id, err = l.th.AsyncWrite(region, l.wbuf, off)
		} else {
			id, err = l.th.AsyncRead(region, off, s.buf)
		}
		if err == nil {
			err = l.grp.Add(id)
		}
		if err != nil {
			// The rings turn an op away when full; a harvest frees space.
			// With nothing in flight no harvest can help: that is a failure.
			rec.refused++
			l.retry, l.hasRetry = op, true
			if l.busy == 0 {
				rec.attempted++
				rec.failed++
				l.err = fmt.Errorf("issue with an empty window: %w", err)
			}
			break
		}
		l.hasRetry = false
		l.versions[op.block] = version
		*s = rawSlot{id: id, busy: true, kind: op.kind, block: op.block, version: version, t0: t0, buf: s.buf, span: -1}
		if tr != nil {
			opID := rec.opID()
			s.span = tr.begin(spanOp, root, opID, t0)
			is := tr.begin(spanCoreIssue, root, opID, t0)
			tr.end(is, l.clk.now())
		}
		l.busy++
		rec.attempted++
		progressed = true
	}
	return progressed
}

// preloadLane writes version 0 of every block of every region through the
// datapath in chunk-sized writes (a fixed op count for a given workload), so
// set-up exercises the same rings, engine and pool the measured phase does.
func preloadLane(l *rawLane, chunk, window int) (bytes int64, ops int64, err error) {
	per := chunk / l.size // blocks per chunk
	buf := make([]byte, chunk)
	grp := l.th.PollCreate()
	total := uint32(l.regions) * l.blocksPerRegion
	start := l.clk.now()
	for next := uint32(0); next < total || grp.Len() > 0; {
		for next < total && grp.Len() < window {
			region, off, space, local := l.locate(next)
			for b := 0; b < per; b++ {
				l.pat.fill(buf[b*l.size:(b+1)*l.size], space, local+uint32(b), 0)
			}
			id, werr := l.th.AsyncWrite(region, buf, off)
			if werr != nil {
				if grp.Len() == 0 {
					return bytes, ops, fmt.Errorf("preload write: %w", werr)
				}
				break // ring full: harvest first
			}
			if aerr := grp.Add(id); aerr != nil {
				return bytes, ops, aerr
			}
			next += uint32(per)
			bytes += int64(chunk)
			ops++
		}
		done, werr := grp.WaitErr(window, 0)
		if werr != nil && !errors.Is(werr, cowbird.ErrPoolDegraded) {
			return bytes, ops, fmt.Errorf("preload poll: %w", werr)
		}
		if len(done) == 0 {
			if l.clk.now()-start > int64(opTimeout) {
				return bytes, ops, errors.New("preload stalled")
			}
			runtime.Gosched()
		}
	}
	return bytes, ops, nil
}
