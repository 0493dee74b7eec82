// Poolfailover: walkthrough of replicated memory pools with transparent
// failover. A deployment with Config.PoolReplicas = 2 mirrors every write to
// both pool nodes before acknowledging it; when the primary crashes
// mid-workload, reads fail over to the survivor without the application
// reissuing anything. The client's WaitErr surfaces the lost redundancy as
// the cowbird.ErrPoolDegraded advisory while every operation keeps
// completing with correct data.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"cowbird"
)

func main() {
	records := flag.Int("records", 40, "records to write before and after the crash")
	detect := flag.Duration("detect", 2*time.Millisecond, "replica-death detection budget (pool retry timeouts, doubling, summed)")
	flag.Parse()

	cfg := cowbird.DefaultConfig()
	cfg.PoolReplicas = 2
	// Tighten Go-Back-N on the engine→pool QPs only, so the demo detects the
	// crash within detect (the timeout doubles per retry: detect/8 ·
	// (1+2+4), and one timeout more) instead of the production 41 ms. The
	// engine↔compute path keeps the forgiving defaults.
	cfg.PoolRetransmitTimeout = *detect / 8
	cfg.PoolMaxRetries = 2
	cfg.Spot.ProbeInterval = 5 * time.Microsecond
	cfg.Spot.PoolHeartbeatInterval = 500 * time.Microsecond

	sys, err := cowbird.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	th, _ := sys.Client.Thread(0)

	// Phase 1: writes land on both replicas before they are acknowledged.
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 512) }
	off := func(i int) uint64 { return uint64(i) * 1024 }
	for i := 0; i < *records; i++ {
		if err := th.WriteSync(0, payload(i), off(i), 10*time.Second); err != nil {
			log.Fatal(err)
		}
	}
	for r, pool := range sys.Pools {
		got, err := pool.Peek(0, off(0), 512)
		if err != nil || !bytes.Equal(got, payload(0)) {
			log.Fatalf("replica %d missing an acked write", r)
		}
	}
	fmt.Printf("wrote %d records; both replicas hold every acked byte\n", *records)

	// Phase 2: the primary dies. Nothing at the application level changes —
	// the engine detects the dead replica by retry exhaustion (or its paced
	// heartbeat READ) and rotates reads to the survivor.
	sys.Pools[0].Crash()
	fmt.Println("primary pool crashed")

	start := time.Now()
	for i := 0; i < *records; i++ {
		dest := make([]byte, 512)
		if err := th.ReadSync(0, off(i), dest, 10*time.Second); err != nil {
			log.Fatalf("read %d after crash: %v", i, err)
		}
		if !bytes.Equal(dest, payload(i)) {
			log.Fatalf("read %d returned wrong data after failover", i)
		}
	}
	fmt.Printf("all %d records read back correctly off the survivor in %v\n",
		*records, time.Since(start).Round(time.Millisecond))

	// Phase 3: the degradation is visible as an advisory, not a failure. An
	// empty-handed wait with nothing outstanding stays clean; the advisory
	// appears when a wait would otherwise spin with requests in flight —
	// here we just ask the engine directly and show the counters.
	if !sys.Spot.PoolDegraded() {
		log.Fatal("engine did not notice the dead replica")
	}
	id, err := th.AsyncRead(0, off(0), make([]byte, 512))
	if err != nil {
		log.Fatal(err)
	}
	g := th.PollCreate()
	if err := g.Add(id); err != nil {
		log.Fatal(err)
	}
	for {
		done, werr := g.WaitErr(1, time.Second)
		if werr != nil && !errors.Is(werr, cowbird.ErrPoolDegraded) {
			log.Fatal(werr)
		}
		if errors.Is(werr, cowbird.ErrPoolDegraded) {
			fmt.Println("WaitErr advisory: pool degraded (operations still completing)")
		}
		if len(done) > 0 {
			break
		}
	}

	st := sys.Spot.Stats()
	fmt.Printf("engine: %d failover, %d mirrored writes, %d pool heartbeats\n",
		st.PoolFailovers, st.ReplicaWrites, st.PoolHeartbeats)
}
