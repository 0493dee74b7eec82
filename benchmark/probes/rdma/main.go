// Probe rdma times the software RNIC and fabric in isolation: two NICs on a
// zero-latency fabric, one QP pair, from PostSend to the CQE. The last figure
// repeats the 64 B write with an identity interposer installed, which forces
// every frame through the fabric's forwarding goroutine — the path the P4
// engine's deployments take.
package main

import (
	"fmt"

	"cowbird/benchmark/probekit"
	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

func main() {
	probekit.Pin()
	fabric := rdma.NewFabric()
	defer fabric.Close()
	cfg := rdma.DefaultConfig()
	a := rdma.NewNIC(fabric, wire.MAC{0x02, 0, 0, 0, 0, 1}, wire.IPv4Addr{10, 0, 0, 1}, cfg)
	defer a.Close()
	b := rdma.NewNIC(fabric, wire.MAC{0x02, 0, 0, 0, 0, 2}, wire.IPv4Addr{10, 0, 0, 2}, cfg)
	defer b.Close()
	const localVA, remoteVA = 0x5000_0000, 0x6000_0000
	a.RegisterMR(localVA, make([]byte, 4096))
	remote := b.RegisterMR(remoteVA, make([]byte, 1<<20))

	cq := rdma.NewCQ()
	qa := a.CreateQP(cq, rdma.NewCQ(), 100)
	qb := b.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 200)
	qa.Connect(rdma.RemoteEndpoint{QPN: qb.QPN(), MAC: b.MAC(), IP: b.IP()}, 200)
	qb.Connect(rdma.RemoteEndpoint{QPN: qa.QPN(), MAC: a.MAC(), IP: a.IP()}, 100)

	var cqes [4]rdma.CQE
	var id uint64
	roundTrip := func(verb rdma.Verb, length uint32) func() {
		return func() {
			id++
			wr := rdma.WorkRequest{ID: id, Verb: verb, LocalVA: localVA, Length: length,
				RemoteVA: remoteVA + (id%128)*4096, RKey: remote.RKey}
			if err := qa.PostSend(wr); err != nil {
				probekit.Fail(err)
			}
			probekit.Await(verb.String(), func() bool { return cq.PollInto(cqes[:]) > 0 })
			if cqes[0].Status != rdma.StatusOK {
				probekit.Fail(fmt.Errorf("%v completed with %v", verb, cqes[0].Status))
			}
		}
	}
	out := map[string]float64{
		"rdma.write_rtt_64_ns":    probekit.NsPerCall(30, 3000, roundTrip(rdma.VerbWrite, 64)),
		"rdma.read_rtt_64_ns":     probekit.NsPerCall(30, 3000, roundTrip(rdma.VerbRead, 64)),
		"rdma.write_4k_ns_per_op": probekit.NsPerCall(30, 1500, roundTrip(rdma.VerbWrite, 4096)),
	}
	fabric.SetInterposer(rdma.InterposerFunc(func(frame []byte) [][]byte { return [][]byte{frame} }))
	out["rdma.interposed_rtt_64_ns"] = probekit.NsPerCall(30, 3000, roundTrip(rdma.VerbWrite, 64))
	probekit.Emit(out)
}
