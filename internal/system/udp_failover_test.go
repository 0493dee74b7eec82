package system

import (
	"context"
	"net"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/ctl"
	"cowbird/internal/engine/spot"
	"cowbird/internal/ha"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

// startCtl serves a control-plane handler on a loopback listener, the way
// each cowbird-* command does, and returns its dial address.
func startCtl(t *testing.T, h ctl.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ctl.Serve(l, h)
	return l.Addr().String()
}

// TestUDPFailoverDeployment is the cmd-level failover story end to end,
// in-process: four "processes" — memnode, primary engine, standby engine
// (cowbird-engine -standby), and the app — each with its own fabric,
// exchanging RoCEv2 frames over real UDP loopback sockets and running Phase I
// over the JSON/TCP control plane with the commands' own code: the memnode
// serves ctl.MemnodeHandler, each engine ha.EngineControl, and the compute
// node calls ctl.Setup once per engine. The primary is preempted
// mid-workload; the compute node's lease monitor detects the death and sends
// "promote" to the standby's control port, which adopts the durable
// bookkeeping state and completes the run.
func TestUDPFailoverDeployment(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Memory-pool process (cmd/cowbird-memnode).
	poolFab := rdma.NewFabric()
	t.Cleanup(poolFab.Close)
	poolBr, err := rdma.NewUDPBridge(poolFab, "127.0.0.1:0")
	must(err)
	t.Cleanup(poolBr.Close)
	pool := memnode.New(poolFab, ctl.PoolMAC, ctl.PoolIP, rdma.DefaultConfig())
	t.Cleanup(pool.Close)
	poolCtl := startCtl(t, ctl.MemnodeHandler(pool, poolBr))

	// Engine processes (cmd/cowbird-engine, one active and one -standby),
	// both built around the same ha.EngineControl the command uses.
	ecfg := spot.DefaultConfig()
	ecfg.ProbeInterval = 5 * time.Microsecond
	ecfg.HeartbeatInterval = time.Millisecond
	newEngine := func(mac [6]byte, ip [4]byte, standby bool) (*spot.Engine, *ha.EngineControl, *rdma.UDPBridge, string) {
		fab := rdma.NewFabric()
		t.Cleanup(fab.Close)
		br, err := rdma.NewUDPBridge(fab, "127.0.0.1:0")
		must(err)
		t.Cleanup(br.Close)
		nic := rdma.NewNIC(fab, mac, ip, rdma.DefaultConfig())
		t.Cleanup(nic.Close)
		eng := spot.New(nic, ecfg)
		t.Cleanup(eng.Stop)
		ec := ha.NewEngineControl(eng, br, nic, mac, ip, standby)
		return eng, ec, br, startCtl(t, ec.Handle)
	}
	primary, _, primBr, primaryCtl := newEngine(ctl.EngineMAC, ctl.EngineIP, false)
	primary.Run()
	_, standbyEC, sbBr, standbyCtl := newEngine(ctl.StandbyMAC, ctl.StandbyIP, true)

	// App process (cmd/cowbird-app).
	compFab := rdma.NewFabric()
	t.Cleanup(compFab.Close)
	compBr, err := rdma.NewUDPBridge(compFab, "127.0.0.1:0")
	must(err)
	t.Cleanup(compBr.Close)
	compNIC := rdma.NewNIC(compFab, ctl.ComputeMAC, ctl.ComputeIP, rdma.DefaultConfig())
	t.Cleanup(compNIC.Close)
	client, err := core.NewClient(compNIC, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	must(err)

	// Teach every bridge where its peers' data planes live (the
	// add_peer_addr calls cowbird-app makes, now covering four roles: the
	// compute node and pool must each know both engines' addresses, so
	// frames route to primary and standby independently).
	must(compBr.AddPeer(ctl.PoolMAC, poolBr.LocalAddr()))
	must(compBr.AddPeer(ctl.EngineMAC, primBr.LocalAddr()))
	must(compBr.AddPeer(ctl.StandbyMAC, sbBr.LocalAddr()))
	for _, ctlAddr := range []string{primaryCtl, standbyCtl} {
		must(ctl.AddPeer(ctx, ctlAddr, ctl.ComputeMAC, compBr.LocalAddr()))
		must(ctl.AddPeer(ctx, ctlAddr, ctl.PoolMAC, poolBr.LocalAddr()))
	}
	must(ctl.AddPeer(ctx, poolCtl, ctl.ComputeMAC, compBr.LocalAddr()))
	must(ctl.AddPeer(ctx, poolCtl, ctl.EngineMAC, primBr.LocalAddr()))
	must(ctl.AddPeer(ctx, poolCtl, ctl.StandbyMAC, sbBr.LocalAddr()))

	// Phase I Setup against both engines, with cowbird-app's own set-up.
	region, err := ctl.AllocRegion(ctx, poolCtl, 0, 1<<20)
	must(err)
	client.RegisterRegion(region)
	must(ctl.Setup(ctx, compNIC, client.Describe(1), poolCtl, primaryCtl))
	must(ctl.Setup(ctx, compNIC, client.Describe(1), poolCtl, standbyCtl))

	// Lease monitor on the compute node: on death, tell the standby's
	// control port to promote — the multi-process form of Monitor.OnDeath.
	mcfg := ha.MonitorConfig{Interval: 2 * time.Millisecond, LeaseTimeout: 60 * time.Millisecond}
	mon := ha.NewMonitor(client, mcfg)
	mon.OnDeath(func() {
		_, _ = ctl.CallRetry(ctx, standbyCtl, ctl.Request{Op: "promote"})
	})
	mon.Start()
	t.Cleanup(mon.Stop)

	// Workload: write then read back a batch of records; the primary dies
	// partway through its RDMA post stream. Generous per-op timeouts absorb
	// the blackout; nothing is reissued by the app.
	primary.PreemptAfter(120)
	th, err := client.Thread(0)
	must(err)
	const records, recSize = 40, 256
	buf := make([]byte, recSize)
	for i := 0; i < records; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := th.WriteSync(0, buf, uint64(i*recSize), 30*time.Second); err != nil {
			t.Fatalf("write %d across failover: %v", i, err)
		}
	}
	dest := make([]byte, recSize)
	for i := 0; i < records; i++ {
		if err := th.ReadSync(0, uint64(i*recSize), dest, 30*time.Second); err != nil {
			t.Fatalf("read %d across failover: %v", i, err)
		}
		for j := range dest {
			if dest[j] != byte(i+j) {
				t.Fatalf("record %d corrupted at byte %d after failover", i, j)
			}
		}
	}

	// The kill must actually have fired mid-workload (120 posts is a few
	// records in), and the standby must have taken over via the ctl path.
	if !primary.Preempted() {
		t.Fatal("preemption never fired: workload too short for the configured kill point")
	}
	if !standbyEC.Standby().Promoted() {
		t.Fatal("standby never promoted")
	}
	if mon.Deaths() == 0 {
		t.Fatal("monitor never observed the death")
	}

	// And the pool holds every record — served by two different engines.
	got, err := pool.Peek(0, 0, records*recSize)
	must(err)
	for i := 0; i < records; i++ {
		for j := 0; j < recSize; j++ {
			if got[i*recSize+j] != byte(i+j) {
				t.Fatalf("pool record %d byte %d wrong", i, j)
			}
		}
	}
}
