// Probe rings times the compute-side ring operations in isolation: the local
// stores an issue costs and the local loads a harvest costs, with no engine
// behind the rings (the probe plays the engine by advancing the red block).
package main

import (
	"cowbird/benchmark/probekit"
	"cowbird/internal/rings"
)

func main() {
	probekit.Pin()
	layout := rings.Layout{MetaEntries: 256, ReqDataBytes: 256 << 10, RespDataBytes: 256 << 10}
	qs, err := rings.NewQueueSet(0x10_0000, layout)
	if err != nil {
		probekit.Fail(err)
	}
	// consume plays the engine: it publishes "everything consumed" in the red
	// block so the rings never fill.
	red := qs.Bytes()[layout.RedOffset():]
	consume := func() {
		g := qs.Green()
		mu := qs.Mutex()
		mu.Lock()
		rings.EncodeRed(rings.Red{MetaHead: g.MetaTail, ReqDataHead: g.ReqDataTail}, red)
		mu.Unlock()
	}

	var respVA uint64
	n := 0
	pushRead := probekit.NsPerCall(40, 20000, func() {
		va, err := qs.PushRead(0x4000_0000, 64, 0)
		if err != nil {
			probekit.Fail(err)
		}
		respVA = va
		qs.FreeResponse(64)
		if n++; n%128 == 0 {
			consume()
		}
	})

	payload := make([]byte, 4096)
	pushWrite := probekit.NsPerCall(40, 5000, func() {
		if err := qs.PushWrite(payload, 0x4000_0000, 0); err != nil {
			probekit.Fail(err)
		}
		if n++; n%32 == 0 {
			consume()
		}
	})

	dst := make([]byte, 64)
	readResp := probekit.NsPerCall(40, 20000, func() { qs.ReadResponse(respVA, dst) })

	probekit.Emit(map[string]float64{
		"rings.push_read_ns":     pushRead,
		"rings.push_write_4k_ns": pushWrite,
		"rings.read_response_ns": readResp,
	})
}
