package perfsim

import "cowbird/internal/sim"

// cbReq is one Cowbird request in the engine model.
type cbReq struct {
	th       *thread
	issuedAt int64
	n        int
	isWrite  bool
}

// cowbirdBackend models the Cowbird datapath: the application thread pays
// only local stores to issue (CowbirdPost) and local loads to harvest
// (CowbirdPoll); an engine actor per queue set performs the §5.2 protocol
// phases on its own timeline.
type cowbirdBackend struct {
	c      *cluster
	p4     bool
	batch  int
	queues []*sim.Queue[cbReq] // one per thread (per-hardware-thread rings)
}

func newCowbirdBackend(c *cluster, p4 bool, batch int) *cowbirdBackend {
	if batch < 1 {
		batch = 1
	}
	b := &cowbirdBackend{c: c, p4: p4, batch: batch}
	for i := 0; i < c.cfg.Threads; i++ {
		b.queues = append(b.queues, sim.NewQueue[cbReq](c.e))
	}
	return b
}

// start launches one engine actor per queue set (called by Run after the
// threads are spawned).
func (b *cowbirdBackend) start() {
	for i := range b.queues {
		q := b.queues[i]
		b.c.e.Go("cowbird-engine", func(p *sim.Proc) { b.engineLoop(p, q) })
	}
}

func (b *cowbirdBackend) issue(p *sim.Proc, th *thread, n int, isWrite bool) {
	// Issuing is purely local stores: reserve ring slots and fill the
	// metadata entry (plus copying the payload for writes).
	c := b.c
	cost := c.m.CowbirdPost
	if isWrite {
		cost += c.m.Copy(n)
	}
	c.cpu(p, cost)
	b.queues[th.id].Put(cbReq{th: th, issuedAt: p.Now(), n: n, isWrite: isWrite})
}

// pollCPU: progress-counter check plus copying the response out of the
// ring into the application buffer (§4.3 "copying the responses back from
// response buffers") — which is why Cowbird lands just under, not above,
// purely local memory.
func (b *cowbirdBackend) pollCPU() float64 {
	m := b.c.m
	return m.CowbirdPoll + m.Copy(b.c.cfg.RecordSize) + 0.35*m.MemLatency
}

// engWork charges the spot agent's per-entry CPU on its single shared core
// (doorbell-batched verbs keep this small); the switch data plane has no
// such stage — its per-packet cost lives in the hop chains.
func (b *cowbirdBackend) engWork() []hop {
	if b.p4 {
		return nil
	}
	return []hop{{&b.c.engCPU, int64(b.c.m.EngineProcessing)}}
}

// engineLoop is the §5.2 protocol on the engine's timeline: Probe at the
// configured pacing, fetch new metadata, Execute the transfers, Complete
// with bookkeeping writes. Transfers from different requests pipeline
// through the shared stations, so the bottleneck (links, NIC message rate,
// or engine) emerges rather than being assumed.
func (b *cowbirdBackend) engineLoop(p *sim.Proc, q *sim.Queue[cbReq]) {
	c := b.c
	const maxEntries = 256
	for {
		if c.remaining == 0 && q.Len() == 0 {
			return
		}
		if q.Len() == 0 {
			// Idle pacing; under load the engine probes back-to-back
			// ("start at a low baseline rate and ramp up only when
			// activity is detected", §5.2).
			p.Sleep(int64(c.m.ProbeInterval))
		}
		// Phase II: probe the green block (engine→compute read, compute
		// DMA turnaround, response back to the engine). Probe packets run
		// at the lowest priority, so they count in the probe traffic class.
		c.probeMode = true
		probe := concat(
			c.hopsE2C(0, b.p4),
			[]hop{{&c.compNICrx, c.msgGap}},
			c.hopsC2E(32),
		)
		c.probeMode = false
		c.await(p, probe)
		if q.Len() == 0 {
			continue
		}
		// Fetch the new metadata entries (head→tail).
		var reqs []cbReq
		for len(reqs) < maxEntries {
			r, ok := q.TryGet()
			if !ok {
				break
			}
			reqs = append(reqs, r)
		}
		c.await(p, concat(
			c.hopsE2C(0, b.p4),
			[]hop{{&c.compNICrx, c.msgGap}},
			c.hopsC2E(len(reqs)*24),
		))

		// Phase III, writes first (the P4 pause-all-reads rule orders them
		// ahead of the round's reads): fetch the payload from the compute
		// node, forward it to the pool, complete on the pool's ACK.
		var writes, reads []cbReq
		for _, r := range reqs {
			if r.isWrite {
				writes = append(writes, r)
			} else {
				reads = append(reads, r)
			}
		}
		// The switch pauses every newly probed read until the round's
		// writes reach Step 2b (§5.3); the spot agent's range-overlap check
		// lets non-conflicting reads proceed immediately (§6).
		if b.p4 || c.cfg.PauseAllReads {
			b.runWrites(p, writes, true)
		} else {
			b.runWrites(p, writes, false)
		}

		// Reads execute fully pipelined: each group's pool fetches run
		// concurrently, and as soon as the group's last fetch lands the
		// batched response write (one RDMA message, one compute-NIC receive
		// slot per group, §6) goes out. The engine actor does not block —
		// it returns to probing while transfers drain through the stations.
		for lo := 0; lo < len(reads); lo += b.batch {
			hi := lo + b.batch
			if hi > len(reads) {
				hi = len(reads)
			}
			b.dispatchReadGroup(reads[lo:hi])
		}
		// Phase IV, batched for the spot engine: one red-block write per
		// round.
		if !b.p4 {
			c.runHops(concat(c.hopsE2C(32, b.p4), []hop{{&c.compNICrx, c.msgGap}}), func() {})
		}
	}
}

// dispatchReadGroup launches one batch group's pool fetches and chains the
// batched response write off the last arrival.
func (b *cowbirdBackend) dispatchReadGroup(group []cbReq) {
	c := b.c
	bytes := 0
	for _, r := range group {
		bytes += r.n
	}
	remaining := len(group)
	onFetched := func() {
		remaining--
		if remaining > 0 {
			return
		}
		respHops := concat(
			c.hopsE2C(bytes, b.p4),
			[]hop{{&c.compNICrx, c.msgGap}},
		)
		if b.p4 {
			// Phase IV per request on the switch (batch size is 1).
			respHops = concat(respHops, c.hopsE2C(32, b.p4), []hop{{&c.compNICrx, c.msgGap}})
		}
		c.runHops(respHops, func() {
			for _, r := range group {
				r.th.completions.Put(completion{issuedAt: r.issuedAt})
			}
			// The compute NIC acknowledges the write(s): one ACK per RDMA
			// message, upstream — where it contends with user TCP traffic.
			nacks := 1
			if b.p4 {
				nacks = 2 // response write + bookkeeping write
			}
			for a := 0; a < nacks; a++ {
				c.runHops(c.hopsC2E(0), func() {})
			}
		})
	}
	for i := range group {
		r := group[i]
		fetch := concat(
			b.engWork(), // agent CPU: parse the entry, post the pool read
			c.hopsE2P(0, b.p4),
			[]hop{{&c.poolNICrx, c.msgGap}},
			c.hopsP2E(r.n),
		)
		c.runHops(fetch, onFetched)
	}
}

// runWrites executes the round's writes concurrently; with block set it
// waits for all their pool ACKs (the pause window for this round's reads).
func (b *cowbirdBackend) runWrites(p *sim.Proc, writes []cbReq, block bool) {
	if len(writes) == 0 {
		return
	}
	c := b.c
	done := sim.NewQueue[int](c.e)
	for i := range writes {
		r := writes[i]
		hops := concat(
			b.engWork(),
			c.hopsE2C(0, b.p4), // Step 1b: payload fetch request
			[]hop{{&c.compNICrx, c.msgGap}},
			c.hopsC2E(r.n),       // payload
			c.hopsE2P(r.n, b.p4), // Step 2b: write to pool
			[]hop{{&c.poolNICrx, c.msgGap}},
			c.hopsP2E(0), // ACK
		)
		if b.p4 {
			hops = concat(hops, c.hopsE2C(32, b.p4), []hop{{&c.compNICrx, c.msgGap}})
		}
		c.runHops(hops, func() {
			r.th.completions.Put(completion{issuedAt: r.issuedAt})
			done.Put(1)
		})
	}
	if !block {
		return
	}
	for range writes {
		done.Get(p)
	}
}
