package ha

import (
	"errors"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// rig is an in-process failover deployment: one compute node and one memory
// pool served by a primary spot engine, with a standby engine pre-wired
// (its own NIC and QP pairs) and a lease monitor on the compute node.
type rig struct {
	f       *rdma.Fabric
	client  *core.Client
	pool    *memnode.Node
	primary *spot.Engine
	standby *Standby
	monitor *Monitor

	closers []func()
}

// close stops and closes what newRig started, last started first, and only
// once. A test that builds the rig inside a synctest bubble calls it there:
// t.Cleanup runs after the bubble has ended, when the rig's timers and
// channels may no longer be touched.
func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// testTimings returns engine/monitor configs with a lease timeout generous
// enough that a loaded -race run never false-positives, while keeping a
// whole failover under ~100ms.
func testTimings() (spot.Config, MonitorConfig) {
	ecfg := spot.DefaultConfig()
	ecfg.ProbeInterval = 5 * time.Microsecond
	ecfg.HeartbeatInterval = 1 * time.Millisecond
	mcfg := MonitorConfig{Interval: 2 * time.Millisecond, LeaseTimeout: 60 * time.Millisecond}
	return ecfg, mcfg
}

// wirePair connects an engine to the compute node and pool with a fresh QP
// pair on a CQ of its own, returning them as one queue set's endpoints.
func wirePair(eng *spot.Engine, computeNIC *rdma.NIC, pool *memnode.Node, basePSN uint32) spot.QueueEndpoints {
	sendCQ, unused := rdma.NewCQ(), rdma.NewCQ()
	eComp := eng.NIC().CreateQP(sendCQ, unused, basePSN)
	cQP := computeNIC.CreateQP(rdma.NewCQ(), rdma.NewCQ(), basePSN+1)
	eComp.Connect(rdma.RemoteEndpoint{QPN: cQP.QPN(), MAC: computeNIC.MAC(), IP: computeNIC.IP()}, basePSN+1)
	cQP.Connect(rdma.RemoteEndpoint{QPN: eComp.QPN(), MAC: eng.NIC().MAC(), IP: eng.NIC().IP()}, basePSN)

	eMem := eng.NIC().CreateQP(sendCQ, unused, basePSN+2)
	mQP := pool.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), basePSN+3)
	eMem.Connect(rdma.RemoteEndpoint{QPN: mQP.QPN(), MAC: pool.NIC().MAC(), IP: pool.NIC().IP()}, basePSN+3)
	mQP.Connect(rdma.RemoteEndpoint{QPN: eMem.QPN(), MAC: eng.NIC().MAC(), IP: eng.NIC().IP()}, basePSN+2)
	return spot.QueueEndpoints{SendCQ: sendCQ, ComputeQP: eComp, Pools: []*rdma.QP{eMem}}
}

// buildRig assembles the deployment and closes it when the test ends.
// autoPromote hangs standby promotion on the monitor's death callback, the
// production wiring.
func buildRig(t *testing.T, ecfg spot.Config, mcfg MonitorConfig, autoPromote bool) *rig {
	t.Helper()
	r, err := newRig(ecfg, mcfg, autoPromote)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	return r
}

// newRig is buildRig for a caller that closes the rig itself; on an error it
// closes what it had started.
func newRig(ecfg spot.Config, mcfg MonitorConfig, autoPromote bool) (_ *rig, err error) {
	f := rdma.NewFabric()
	r := &rig{f: f}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	computeNIC := rdma.NewNIC(f, wire.MAC{2, 0xFA, 0, 0, 0, 1}, wire.IPv4Addr{10, 8, 0, 1}, rdma.DefaultConfig())
	pool := memnode.New(f, wire.MAC{2, 0xFA, 0, 0, 0, 2}, wire.IPv4Addr{10, 8, 0, 2}, rdma.DefaultConfig())
	primaryNIC := rdma.NewNIC(f, wire.MAC{2, 0xFA, 0, 0, 0, 3}, wire.IPv4Addr{10, 8, 0, 3}, rdma.DefaultConfig())
	standbyNIC := rdma.NewNIC(f, wire.MAC{2, 0xFA, 0, 0, 0, 4}, wire.IPv4Addr{10, 8, 0, 4}, rdma.DefaultConfig())
	r.closers = append(r.closers, f.Close, computeNIC.Close, pool.Close, primaryNIC.Close, standbyNIC.Close)

	client, err := core.NewClient(computeNIC, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	if err != nil {
		return nil, err
	}
	region, err := pool.AllocRegion(0, 1<<20)
	if err != nil {
		return nil, err
	}
	client.RegisterRegion(region)

	primary := spot.New(primaryNIC, ecfg)
	r.closers = append(r.closers, primary.Stop)
	onePool := func(ep spot.QueueEndpoints) spot.Registration {
		in := client.Describe(1)
		return spot.Registration{Instance: in, Pools: []spot.PoolReplica{{Regions: in.Regions}}, Queues: []spot.QueueEndpoints{ep}}
	}
	if err := primary.Register(onePool(wirePair(primary, computeNIC, pool, 1000))); err != nil {
		return nil, err
	}

	standbyEng := spot.New(standbyNIC, ecfg)
	r.closers = append(r.closers, standbyEng.Stop)
	st := NewStandby(standbyEng)
	if err := st.Register(onePool(wirePair(standbyEng, computeNIC, pool, 2000))); err != nil {
		return nil, err
	}

	mon := NewMonitor(client, mcfg)
	if autoPromote {
		mon.OnDeath(func() { _ = st.Promote() })
	}
	r.client, r.pool, r.primary, r.standby, r.monitor = client, pool, primary, st, mon
	return r, nil
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaseLifecycle walks the full arc: healthy lease → preemption →
// detection → automatic standby promotion → lease recovery, with the
// workload succeeding on both sides of the failover.
func TestLeaseLifecycle(t *testing.T) {
	ecfg, mcfg := testTimings()
	r := buildRig(t, ecfg, mcfg, true)
	r.primary.Run()
	r.monitor.Start()
	t.Cleanup(r.monitor.Stop)

	th, _ := r.client.Thread(0)
	if err := th.WriteSync(0, []byte("before-failover"), 128, 10*time.Second); err != nil {
		t.Fatalf("write on primary: %v", err)
	}
	time.Sleep(5 * mcfg.Interval)
	if !r.monitor.Alive() || r.monitor.Deaths() != 0 {
		t.Fatalf("healthy engine declared dead (alive=%v deaths=%d)", r.monitor.Alive(), r.monitor.Deaths())
	}

	r.primary.Preempt()
	waitFor(t, "death detection", 10*time.Second, func() bool { return r.monitor.Deaths() == 1 })
	waitFor(t, "standby promotion", 10*time.Second, r.standby.Promoted)
	waitFor(t, "lease recovery", 10*time.Second, r.monitor.Alive)

	if err := th.WriteSync(0, []byte("after-failover!"), 256, 10*time.Second); err != nil {
		t.Fatalf("write on standby: %v", err)
	}
	got, err := r.pool.Peek(0, 128, 15)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "before-failover" {
		t.Fatalf("pre-failover write lost: %q", got)
	}
}

// TestWaitErrSurfacesEngineDead checks the core satellite: a poll group
// blocked on a dead engine returns ErrEngineDead instead of spinning, and
// completes normally after a manual promotion.
func TestWaitErrSurfacesEngineDead(t *testing.T) {
	ecfg, mcfg := testTimings()
	r := buildRig(t, ecfg, mcfg, false) // no auto-promotion
	r.primary.Run()
	r.monitor.Start()
	t.Cleanup(r.monitor.Stop)

	th, _ := r.client.Thread(0)
	if err := th.WriteSync(0, []byte{0xAB}, 64, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	r.primary.Preempt()
	waitFor(t, "death detection", 10*time.Second, func() bool { return !r.monitor.Alive() })

	dest := make([]byte, 1)
	id, err := th.AsyncRead(0, 64, dest)
	if err != nil {
		t.Fatal(err)
	}
	g := th.PollCreate()
	if err := g.Add(id); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WaitErr(1, 10*time.Second); !errors.Is(err, core.ErrEngineDead) {
		t.Fatalf("WaitErr = %v, want ErrEngineDead", err)
	}

	if err := r.standby.Promote(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "completion after promotion", 10*time.Second, func() bool {
		ids, err := g.WaitErr(1, 100*time.Millisecond)
		if err != nil {
			return false
		}
		return len(ids) == 1 && ids[0] == id
	})
	if dest[0] != 0xAB {
		t.Fatalf("read after failover = %#x, want 0xAB", dest[0])
	}
}

// TestPromoteIdempotent: repeated/late promotion must collapse to one
// takeover, and late registration must be refused.
func TestPromoteIdempotent(t *testing.T) {
	ecfg, mcfg := testTimings()
	r := buildRig(t, ecfg, mcfg, false)
	r.primary.Run()
	_ = mcfg

	r.primary.Preempt()
	if err := r.standby.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := r.standby.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}
	if !r.standby.Promoted() {
		t.Fatal("Promoted() false after Promote")
	}
	if err := r.standby.Register(spot.Registration{}); err == nil {
		t.Fatal("Register after promotion succeeded")
	}
}

// TestMonitorDetectsNeverStartedEngine: the lease clock starts at the first
// sample, so an engine that dies before its first heartbeat (or never
// existed) is still detected.
func TestMonitorDetectsNeverStartedEngine(t *testing.T) {
	ecfg, mcfg := testTimings()
	r := buildRig(t, ecfg, mcfg, false)
	// Primary never Run: no heartbeat will ever arrive.
	r.monitor.Start()
	t.Cleanup(r.monitor.Stop)
	waitFor(t, "death of silent engine", 10*time.Second, func() bool { return !r.monitor.Alive() })
}

// TestMonitorStopWithoutStart: Stop on a monitor that never started returns
// (the sampling goroutine is what closes done, and there is none), twice,
// and a Start after it samples nothing.
func TestMonitorStopWithoutStart(t *testing.T) {
	ecfg, mcfg := testTimings()
	r := buildRig(t, ecfg, mcfg, false)
	mon := NewMonitor(r.client, mcfg)
	stopped := make(chan struct{})
	go func() {
		mon.Stop()
		mon.Stop()
		mon.Start()
		mon.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on a never-started monitor did not return")
	}
}
