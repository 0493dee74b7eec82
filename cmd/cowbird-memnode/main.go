// Command cowbird-memnode runs a Cowbird memory pool as its own OS process:
// a plain RDMA responder whose RoCEv2 frames travel over UDP (see
// rdma.UDPBridge) and whose control plane (region allocation, QP
// management: ctl.MemnodeHandler) is served over TCP.
//
// A three-process deployment on one machine:
//
//	cowbird-memnode -ctl :7101 -data :7201
//	cowbird-engine  -ctl :7102 -data :7202
//	cowbird-app     -mem-ctl :7101 -eng-ctl :7102 \
//	                -data :7200 -mem-data :7201 -eng-data :7202
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"cowbird/internal/ctl"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/telemetry"
)

func main() {
	ctlAddr := flag.String("ctl", ":7101", "TCP control-plane listen address")
	dataAddr := flag.String("data", ":7201", "UDP data-plane listen address")
	httpAddr := flag.String("http", "", "observability HTTP listen address (/metrics, /vars, /debug/pprof)")
	flag.Parse()

	fabric := rdma.NewFabric()
	defer fabric.Close()
	bridge, err := rdma.NewUDPBridge(fabric, *dataAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer bridge.Close()

	node := memnode.New(fabric, ctl.PoolMAC, ctl.PoolIP, rdma.DefaultConfig())
	defer node.Close()

	if *httpAddr != "" {
		reg := telemetry.NewRegistry()
		reg.Gauge("cowbird_pool_fabric_frames_total", func() int64 { return int64(fabric.Stats().Frames) })
		reg.Gauge("cowbird_pool_fabric_bytes_total", func() int64 { return int64(fabric.Stats().Bytes) })
		reg.Gauge("cowbird_pool_fabric_dropped_total", func() int64 { return int64(fabric.Stats().Dropped) })
		reg.Gauge("cowbird_pool_regions", func() int64 { return int64(len(node.Regions())) })
		reg.Gauge("cowbird_pool_region_bytes", func() int64 {
			var total int64
			for _, r := range node.Regions() {
				total += int64(r.Size)
			}
			return total
		})
		hl, stop, err := telemetry.ListenAndServe(*httpAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("cowbird-memnode: observability http %s (/metrics, /vars, /debug/pprof)\n", hl.Addr())
	}

	l, err := net.Listen("tcp", *ctlAddr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cowbird-memnode: ctl %s, data %s\n", l.Addr(), bridge.LocalAddr())

	ctl.Serve(l, ctl.MemnodeHandler(node, bridge))
}
