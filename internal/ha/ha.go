// Package ha adds engine failover and spot-preemption tolerance to Cowbird.
//
// The paper's economic argument for Cowbird-Spot is that the offload engine
// can run on a revocable spot VM (Table 1: 68–90% cheaper than on-demand);
// ha supplies the piece that makes revocation survivable. The design leans
// on the property that makes it cheap (§4.2): every byte of durable
// protocol state — ring tails, heads, per-type progress counters — lives in
// compute-node memory, updated by the engine in single RDMA writes. The
// engine itself is pure soft state, so a standby can reconstruct everything
// by reading the bookkeeping block back and resume exactly where the dead
// engine stopped.
//
// Three pieces:
//
//   - Monitor (this file): a lease/heartbeat failure detector. The engine
//     bumps a heartbeat counter in the red bookkeeping half with every
//     pointer-update write (renewing its lease for free under load) and
//     with periodic heartbeat-only writes when idle. The compute node
//     samples the counter with plain local loads; when it stalls past the
//     lease timeout the engine is declared dead.
//   - Standby (standby.go): the takeover protocol. A standby engine holds
//     pre-wired QPs; on promotion it reads the durable red state over RDMA
//     (spot.Registration.Adopt) and resumes serving. Exactly-once replay
//     follows from red-block atomicity — see the spot engine's readRedBlocks.
//   - EngineControl (enginectl.go): the control-plane handler that lets
//     cmd/cowbird-engine run as either the active engine or a promotable
//     standby in multi-process deployments.
package ha

import (
	"fmt"
	"sync"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/telemetry"
)

// MonitorConfig tunes the failure detector.
type MonitorConfig struct {
	// Interval is the sampling period for the heartbeat counters.
	Interval time.Duration
	// LeaseTimeout is how long a heartbeat counter may stall before the
	// engine is declared dead. It should be several engine heartbeat
	// intervals, or sampling noise produces false revocations.
	LeaseTimeout time.Duration
}

// DefaultMonitorConfig returns a detector matched to the spot engine's
// default 500µs heartbeat interval.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{Interval: 200 * time.Microsecond, LeaseTimeout: 5 * time.Millisecond}
}

// queueLease tracks one queue set's heartbeat counter.
type queueLease struct {
	last    uint64    // last sampled heartbeat value
	changed time.Time // when it last advanced (or was first sampled)
}

// Monitor is the compute-side lease monitor: it samples every queue set's
// heartbeat counter (a local memory load — no network traffic) and declares
// the engine dead when any queue's counter stalls past the lease timeout.
// The clock for each queue starts at the monitor's first sample, so start
// the monitor only once an engine is attached (after Phase I setup): an
// engine that dies before its very first heartbeat is still detected.
// Liveness recovers automatically when heartbeats resume — i.e. when a
// standby's first red write lands.
type Monitor struct {
	c   *core.Client
	cfg MonitorConfig

	mu      sync.Mutex
	leases  []queueLease
	alive   bool
	deaths  int
	onDeath []func()

	stop chan struct{}
	done chan struct{}
}

// NewMonitor builds a monitor over every thread of c and installs itself as
// the client's liveness check, so PollGroup.WaitErr surfaces ErrEngineDead
// once the lease trips. Call Start to begin sampling.
func NewMonitor(c *core.Client, cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultMonitorConfig().Interval
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultMonitorConfig().LeaseTimeout
	}
	m := &Monitor{
		c:      c,
		cfg:    cfg,
		leases: make([]queueLease, c.Threads()),
		alive:  true,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.SetLiveness(m.Alive)
	return m
}

// OnDeath registers a callback invoked (from the monitor goroutine) each
// time the engine transitions alive→dead. internal/ha users hang standby
// promotion here.
func (m *Monitor) OnDeath(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onDeath = append(m.onDeath, fn)
}

// Alive reports whether the engine's lease is current.
func (m *Monitor) Alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

// Deaths counts alive→dead transitions observed so far.
func (m *Monitor) Deaths() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deaths
}

// RegisterMetrics exports the monitor's lease state on reg:
// cowbird_lease_age_ns is the age of the stalest queue's heartbeat — the
// quantity the detector compares against LeaseTimeout, so a dashboard shows
// how close the engine is to being declared dead — plus a
// cowbird_lease_age_ns_queue<i> gauge per queue set. Ages read as zero
// until the first sample.
func (m *Monitor) RegisterMetrics(reg *telemetry.Registry) {
	for i := range m.leases {
		qi := i
		reg.Gauge(fmt.Sprintf("cowbird_lease_age_ns_queue%d", qi), func() int64 { return m.leaseAge(qi) })
	}
	reg.Gauge("cowbird_lease_age_ns", m.maxLeaseAge)
}

// leaseAge returns how long queue i's heartbeat counter has been stalled.
func (m *Monitor) leaseAge(i int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i >= len(m.leases) || m.leases[i].changed.IsZero() {
		return 0
	}
	return time.Since(m.leases[i].changed).Nanoseconds()
}

// maxLeaseAge returns the stalest queue's heartbeat age.
func (m *Monitor) maxLeaseAge() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var oldest int64
	for _, l := range m.leases {
		if l.changed.IsZero() {
			continue
		}
		if age := time.Since(l.changed).Nanoseconds(); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// Start launches the sampling loop. Stop it with Stop.
func (m *Monitor) Start() {
	go m.loop()
}

// Stop halts the sampling loop.
func (m *Monitor) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

func (m *Monitor) loop() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			for _, fn := range m.sample(now) {
				fn()
			}
		}
	}
}

// sample takes one reading of every queue's heartbeat and updates the lease
// state, returning the death callbacks to run (outside the lock) if this
// sample tripped the detector.
func (m *Monitor) sample(now time.Time) []func() {
	m.mu.Lock()
	defer m.mu.Unlock()
	anyStalled := false
	for i := range m.leases {
		t, err := m.c.Thread(i)
		if err != nil {
			continue
		}
		hb := t.QueueSet().Heartbeat()
		l := &m.leases[i]
		if l.changed.IsZero() || hb != l.last {
			l.last = hb
			l.changed = now
			continue
		}
		if now.Sub(l.changed) > m.cfg.LeaseTimeout {
			anyStalled = true
		}
	}
	switch {
	case m.alive && anyStalled:
		m.alive = false
		m.deaths++
		return append([]func(){}, m.onDeath...)
	case !m.alive && !anyStalled:
		// Heartbeats resumed on every stalled queue: a standby took over.
		m.alive = true
	}
	return nil
}
