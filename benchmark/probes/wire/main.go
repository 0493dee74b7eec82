// Probe wire times the RoCEv2 codec in isolation: serializing and decoding a
// WRITE_ONLY frame (headers, IPv4 checksum, ICRC) at the benchmark's two
// payload sizes — 64 B (the *_64 workloads) and 1 KiB (one MTU-sized segment
// of a 4 KiB operation) — and the allocations a frame costs.
package main

import (
	"runtime"

	"cowbird/benchmark/probekit"
	"cowbird/internal/wire"
)

func packet(payload []byte) *wire.Packet {
	p := &wire.Packet{}
	p.Eth.Src = wire.MAC{0x02, 0, 0, 0, 0, 1}
	p.Eth.Dst = wire.MAC{0x02, 0, 0, 0, 0, 2}
	p.IP.Src = wire.IPv4Addr{10, 0, 0, 1}
	p.IP.Dst = wire.IPv4Addr{10, 0, 0, 2}
	p.UDP.SrcPort = 49152
	p.BTH.OpCode = wire.OpWriteOnly
	p.BTH.DestQP = 0x1234
	p.BTH.PSN = 0x00abcd
	p.BTH.AckReq = true
	p.RETH = wire.RETH{VA: 0xdeadbeefcafe, RKey: 0x77, DMALen: uint32(len(payload))}
	p.Payload = payload
	return p
}

func main() {
	probekit.Pin()
	out := map[string]float64{}
	var mallocs uint64
	var frames uint64
	for _, size := range []struct {
		n    int
		name string
	}{{64, "64"}, {1024, "1k"}} {
		in := packet(make([]byte, size.n))
		buf := make([]byte, 0, 2048)
		frame, err := in.SerializeInto(buf)
		if err != nil {
			probekit.Fail(err)
		}
		var dec wire.Packet
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		out["wire.serialize_"+size.name+"_ns"] = probekit.NsPerCall(40, 20000, func() {
			if _, err := in.SerializeInto(buf); err != nil {
				probekit.Fail(err)
			}
		})
		out["wire.decode_"+size.name+"_ns"] = probekit.NsPerCall(40, 20000, func() {
			if err := dec.DecodeFromBytes(frame); err != nil {
				probekit.Fail(err)
			}
		})
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		frames += 2 * 41 * 20000
	}
	// Heap allocations per frame handled (serialize or decode), harness
	// bookkeeping included: a pooled codec reads ~0.
	out["wire.allocs_per_pkt"] = float64(mallocs) / float64(frames)
	probekit.Emit(out)
}
