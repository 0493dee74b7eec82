// Command cowbird-app is the compute node of a multi-process Cowbird
// deployment: it orchestrates Phase I Setup against a cowbird-memnode and a
// cowbird-engine over their TCP control planes, then runs a read/write
// workload whose every transfer is executed remotely — the app itself
// performs only local loads and stores.
//
//	cowbird-memnode -ctl :7101 -data :7201 &
//	cowbird-engine  -ctl :7102 -data :7202 &
//	cowbird-app -mem-ctl 127.0.0.1:7101 -eng-ctl 127.0.0.1:7102 \
//	            -data 127.0.0.1:7200 -mem-data 127.0.0.1:7201 -eng-data 127.0.0.1:7202
//
// The three may start in any order: every Phase I call retries
// (ctl.CallRetry) for up to a minute while the other two come up.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/ctl"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

func main() {
	memCtl := flag.String("mem-ctl", "127.0.0.1:7101", "memnode control address")
	engCtl := flag.String("eng-ctl", "127.0.0.1:7102", "engine control address")
	dataAddr := flag.String("data", "127.0.0.1:7200", "our UDP data-plane listen address")
	memData := flag.String("mem-data", "127.0.0.1:7201", "memnode UDP data address")
	engData := flag.String("eng-data", "127.0.0.1:7202", "engine UDP data address")
	records := flag.Int("records", 200, "records to write and read back")
	size := flag.Int("size", 256, "record size in bytes")
	flag.Parse()

	// Data plane: local fabric bridged to the other processes over UDP.
	fabric := rdma.NewFabric()
	defer fabric.Close()
	bridge, err := rdma.NewUDPBridge(fabric, *dataAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer bridge.Close()
	must(bridge.AddPeer(ctl.PoolMAC, *memData))
	must(bridge.AddPeer(ctl.EngineMAC, *engData))

	nic := rdma.NewNIC(fabric, ctl.ComputeMAC, ctl.ComputeIP, rdma.DefaultConfig())
	defer nic.Close()
	client, err := core.NewClient(nic, core.ClientConfig{
		Threads: 1,
		Layout:  rings.Layout{MetaEntries: 256, ReqDataBytes: 256 << 10, RespDataBytes: 256 << 10},
		BaseVA:  0x10_0000,
	})
	must(err)

	// Phase I Setup, orchestrated from the compute node. Every call
	// retries, so the memnode and the engine may start after the app.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	must(ctl.AddPeer(ctx, *memCtl, ctl.ComputeMAC, *dataAddr))
	must(ctl.AddPeer(ctx, *memCtl, ctl.EngineMAC, *engData))
	must(ctl.AddPeer(ctx, *engCtl, ctl.ComputeMAC, *dataAddr))
	must(ctl.AddPeer(ctx, *engCtl, ctl.PoolMAC, *memData))
	region, err := ctl.AllocRegion(ctx, *memCtl, 0, uint64((*records+1)**size))
	must(err)
	client.RegisterRegion(region)
	fmt.Printf("region 0: %d bytes at pool (rkey 0x%x)\n", region.Size, region.RKey)
	must(ctl.Setup(ctx, nic, client.Describe(0), *memCtl, *engCtl))
	fmt.Println("setup complete; all transfers now execute on the engine")

	// Workload: write every record, read it back, verify — purely local
	// issue/poll on this side.
	th, err := client.Thread(0)
	must(err)
	start := time.Now()
	buf := make([]byte, *size)
	for i := 0; i < *records; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		must(th.WriteSync(0, buf, uint64(i**size), 10*time.Second))
	}
	writeDur := time.Since(start)

	start = time.Now()
	dest := make([]byte, *size)
	for i := 0; i < *records; i++ {
		must(th.ReadSync(0, uint64(i**size), dest, 10*time.Second))
		for j := range dest {
			if dest[j] != byte(i+j) {
				log.Fatalf("record %d corrupted at byte %d", i, j)
			}
		}
	}
	readDur := time.Since(start)
	fmt.Printf("wrote %d records in %v, read+verified in %v (%d B each) across 3 processes\n",
		*records, writeDur.Round(time.Millisecond), readDur.Round(time.Millisecond), *size)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
