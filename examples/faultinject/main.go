// Faultinject: demonstrates §5.3 fault tolerance. Runs a Cowbird-P4
// deployment while an internal/chaos schedule batters the fabric — seeded
// loss bursts and delay spikes — and shows that every operation still
// completes with correct data through the switch's drain-and-resync
// Go-Back-N recovery. The schedule is a pure function of -seed: the same
// seed replays the identical fault sequence, so a run that surfaces a bug
// is reproducible by construction.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cowbird"
	"cowbird/internal/chaos"
	"cowbird/internal/rdma"
)

func main() {
	lossPct := flag.Int("loss", 30, "peak percent of frames a loss burst drops")
	ops := flag.Int("ops", 50, "read+write pairs to run")
	seed := flag.Int64("seed", 1, "chaos seed; the same seed replays the same schedule and coin flips")
	pcapPath := flag.String("pcap", "", "write all surviving frames to this pcap file (open with Wireshark)")
	flag.Parse()

	cfg := cowbird.DefaultConfig()
	cfg.Engine = cowbird.EngineP4
	sys, err := cowbird.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tap, err := rdma.NewPcapTap(f)
		if err != nil {
			log.Fatal(err)
		}
		sys.Fabric.SetTap(tap)
		defer func() {
			fmt.Printf("captured %d frames to %s\n", tap.Frames(), *pcapPath)
		}()
	}

	sched := chaos.Generate(*seed, chaos.Profile{
		Horizon:    500 * time.Millisecond,
		Events:     8,
		Kinds:      []chaos.Kind{chaos.KindLossBurst, chaos.KindDelaySpike},
		MaxLossPct: float64(*lossPct) / 100,
		MaxBurst:   120 * time.Millisecond,
		MaxDelay:   200 * time.Microsecond,
	})
	fmt.Printf("schedule (seed %d):\n", *seed)
	for _, e := range sched.Events {
		fmt.Printf("  %v\n", e)
	}
	inj := chaos.NewInjector(chaos.Target{Fabric: sys.Fabric, Pools: sys.Pools}, *seed)
	defer inj.Close()
	done := make(chan struct{})
	go func() { inj.Run(sched); close(done) }()

	th, _ := sys.Client.Thread(0)
	group := th.PollCreate()
	start := time.Now()
	bufs := make([][]byte, *ops)
	for i := 0; i < *ops; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 600)
		off := uint64(i) * 1024
		wid, err := th.AsyncWrite(0, data, off)
		if err != nil {
			log.Fatal(err)
		}
		bufs[i] = make([]byte, 600)
		rid, err := th.AsyncRead(0, off, bufs[i])
		if err != nil {
			log.Fatal(err)
		}
		if err := group.Add(wid); err != nil {
			log.Fatal(err)
		}
		if err := group.Add(rid); err != nil {
			log.Fatal(err)
		}
	}
	want := 2 * *ops
	got := 0
	for got < want {
		n := len(group.Wait(64, 2*time.Second))
		got += n
		fmt.Printf("\rcompleted %d/%d", got, want)
	}
	fmt.Println()
	<-done
	for i, b := range bufs {
		for _, v := range b {
			if v != byte(i+1) {
				log.Fatalf("read %d corrupted under loss", i)
			}
		}
	}
	st := sys.P4.Stats()
	fmt.Printf("all %d ops correct in %v despite %d dropped frames (bursts up to %d%% loss)\n",
		want, time.Since(start).Round(time.Millisecond), inj.Drops(), *lossPct)
	fmt.Printf("switch: %d recoveries, %d NAKs, %d packets recycled, %d reads paused by the write rule\n",
		st.Recoveries, st.NAKs, st.PacketsRecycled, st.ReadsPaused)
}
