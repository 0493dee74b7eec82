// Failover: demonstrates internal/ha spot-preemption tolerance. A primary
// Cowbird-Spot engine serves a write/read workload and is preempted partway
// through its RDMA post stream — the way a cloud provider revokes a spot
// VM. The compute node's lease monitor notices the heartbeat counter stall,
// promotes a warm standby engine, and the workload finishes with every
// request completing exactly once; nothing is reissued by the application.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/ha"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

func main() {
	records := flag.Int("records", 60, "records to write and read back")
	killAfter := flag.Int64("kill-after", 150, "preempt the primary after this many RDMA posts")
	heartbeat := flag.Duration("heartbeat", 500*time.Microsecond, "engine heartbeat interval")
	lease := flag.Duration("lease", 20*time.Millisecond, "compute-side lease timeout")
	flag.Parse()

	fabric := rdma.NewFabric()
	defer fabric.Close()

	computeNIC := rdma.NewNIC(fabric, wire.MAC{2, 0, 0, 0, 0, 1}, wire.IPv4Addr{10, 0, 0, 1}, rdma.DefaultConfig())
	defer computeNIC.Close()
	pool := memnode.New(fabric, wire.MAC{2, 0, 0, 0, 0, 2}, wire.IPv4Addr{10, 0, 0, 2}, rdma.DefaultConfig())
	defer pool.Close()

	client, err := core.NewClient(computeNIC, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
		BaseVA:  0x10_0000,
	})
	if err != nil {
		log.Fatal(err)
	}
	region, err := pool.AllocRegion(0, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	client.RegisterRegion(region)

	ecfg := spot.DefaultConfig()
	ecfg.ProbeInterval = 5 * time.Microsecond
	ecfg.HeartbeatInterval = *heartbeat

	// attach hands the instance to an engine (or to its standby wrapper) over
	// fresh QPs to the compute node and the pool — done for the standby at
	// startup, so promotion is a local call.
	inst := client.Describe(1)
	attach := func(eng *spot.Engine, basePSN uint32, register func(spot.Registration) error) {
		eComp, _ := rdma.ConnectPair(eng.NIC(), eng.CQ(), basePSN, computeNIC, basePSN+1)
		eMem, _ := rdma.ConnectPair(eng.NIC(), eng.CQ(), basePSN+2, pool.NIC(), basePSN+3)
		err := register(spot.Registration{
			Instance:  inst,
			ComputeQP: eComp,
			Pools:     []spot.PoolReplica{{QP: eMem, Regions: inst.Regions}},
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	primaryNIC := rdma.NewNIC(fabric, wire.MAC{2, 0, 0, 0, 0, 3}, wire.IPv4Addr{10, 0, 0, 3}, rdma.DefaultConfig())
	defer primaryNIC.Close()
	primary := spot.New(primaryNIC, ecfg)
	attach(primary, 1000, primary.Register)
	primary.Run()
	defer primary.Stop()

	standbyNIC := rdma.NewNIC(fabric, wire.MAC{2, 0, 0, 0, 0, 4}, wire.IPv4Addr{10, 0, 0, 4}, rdma.DefaultConfig())
	defer standbyNIC.Close()
	standbyEng := spot.New(standbyNIC, ecfg)
	standby := ha.NewStandby(standbyEng)
	attach(standbyEng, 2000, standby.Register)
	defer standbyEng.Stop()

	var died, promoted time.Time
	mon := ha.NewMonitor(client, ha.MonitorConfig{Interval: time.Millisecond, LeaseTimeout: *lease})
	mon.OnDeath(func() {
		died = time.Now()
		if err := standby.Promote(); err != nil {
			log.Fatal(err)
		}
		promoted = time.Now()
		fmt.Printf("  [monitor] lease expired → standby promoted in %v\n", promoted.Sub(died))
	})
	mon.Start()
	defer mon.Stop()

	fmt.Printf("primary serving (heartbeat %v, lease %v); preemption armed after %d posts\n",
		*heartbeat, *lease, *killAfter)
	primary.PreemptAfter(*killAfter)

	// Workload: every transfer is offloaded; the app only issues and polls.
	// The blackout shows up as one slow request, not a failure.
	th, _ := client.Thread(0)
	start := time.Now()
	var slowest time.Duration
	buf := make([]byte, 256)
	for i := 0; i < *records; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		t0 := time.Now()
		if err := th.WriteSync(0, buf, uint64(i)*256, 30*time.Second); err != nil {
			log.Fatalf("write %d: %v", i, err)
		}
		if d := time.Since(t0); d > slowest {
			slowest = d
		}
	}
	dest := make([]byte, 256)
	for i := 0; i < *records; i++ {
		if err := th.ReadSync(0, uint64(i)*256, dest, 30*time.Second); err != nil {
			log.Fatalf("read %d: %v", i, err)
		}
		for j := range dest {
			if dest[j] != byte(i+j) {
				log.Fatalf("record %d corrupted at byte %d", i, j)
			}
		}
	}

	if !primary.Preempted() {
		fmt.Println("workload finished before the kill point; forcing preemption to show idle takeover")
		primary.Preempt()
		if err := th.WriteSync(0, buf, 0, 30*time.Second); err != nil {
			log.Fatal(err)
		}
	}
	for !standby.Promoted() {
		time.Sleep(time.Millisecond)
	}

	st := standbyEng.Stats()
	fmt.Printf("wrote+verified %d records in %v across the failover (slowest op %v ≈ the blackout)\n",
		*records, time.Since(start).Round(time.Millisecond), slowest.Round(time.Millisecond))
	fmt.Printf("standby served %d entries (%d reads, %d writes) after adopting the durable bookkeeping state\n",
		st.EntriesServed, st.ReadsExecuted, st.WritesExecuted)
	fmt.Printf("primary preempted=%v, monitor deaths=%d — every request completed exactly once\n",
		primary.Preempted(), mon.Deaths())
}
