// Probe memnode times the pool's DMA in isolation: one RDMA READ and one RDMA
// WRITE of 4 KiB (four MTU-sized segments) against a memnode.AllocRegion MR
// over a zero-latency fabric, from QP post to CQE. It differs from the rdma
// probe in the responder: the pool node's region registration and per-region
// DMA lock are on the path.
package main

import (
	"fmt"

	"cowbird/benchmark/probekit"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

func main() {
	probekit.Pin()
	fabric := rdma.NewFabric()
	defer fabric.Close()
	cfg := rdma.DefaultConfig()
	node := memnode.New(fabric, wire.MAC{0x02, 0, 0, 0, 0, 2}, wire.IPv4Addr{10, 0, 0, 2}, cfg)
	defer node.Close()
	region, err := node.AllocRegion(0, 1<<20)
	if err != nil {
		probekit.Fail(err)
	}
	nic := rdma.NewNIC(fabric, wire.MAC{0x02, 0, 0, 0, 0, 1}, wire.IPv4Addr{10, 0, 0, 1}, cfg)
	defer nic.Close()
	local := make([]byte, 4096)
	const localVA = 0x5000_0000
	nic.RegisterMR(localVA, local)

	cq := rdma.NewCQ()
	qp := nic.CreateQP(cq, rdma.NewCQ(), 100)
	peer := node.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), 200)
	qp.Connect(rdma.RemoteEndpoint{QPN: peer.QPN(), MAC: node.NIC().MAC(), IP: node.NIC().IP()}, 200)
	peer.Connect(rdma.RemoteEndpoint{QPN: qp.QPN(), MAC: nic.MAC(), IP: nic.IP()}, 100)

	var cqes [4]rdma.CQE
	var id uint64
	roundTrip := func(verb rdma.Verb) {
		id++
		wr := rdma.WorkRequest{ID: id, Verb: verb, LocalVA: localVA, Length: 4096,
			RemoteVA: region.Base + (id%128)*4096, RKey: region.RKey}
		if err := qp.PostSend(wr); err != nil {
			probekit.Fail(err)
		}
		probekit.Await(verb.String(), func() bool { return cq.PollInto(cqes[:]) > 0 })
		if cqes[0].Status != rdma.StatusOK {
			probekit.Fail(fmt.Errorf("%v completed with %v", verb, cqes[0].Status))
		}
	}
	probekit.Emit(map[string]float64{
		"memnode.dma_write_4k_ns": probekit.NsPerCall(30, 1500, func() { roundTrip(rdma.VerbWrite) }),
		"memnode.dma_read_4k_ns":  probekit.NsPerCall(30, 1500, func() { roundTrip(rdma.VerbRead) }),
	})
}
