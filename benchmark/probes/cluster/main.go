// Probe cluster times fleet placement in isolation: a consistent-hash ring
// lookup (which engine owns a tenant) on a 2-member ring, and a directory
// placement of one 2-stripe tenant across 3 memnodes — the two decisions
// Fleet.AddTenant makes before any wiring.
package main

import (
	"cowbird/benchmark/probekit"
	"cowbird/internal/cluster"
)

func main() {
	probekit.Pin()
	ring := cluster.NewRing(0)
	ring.Add(0)
	ring.Add(1)
	var key uint64
	lookup := probekit.NsPerCall(40, 20000, func() {
		key++
		if _, ok := ring.Owner(key); !ok {
			panic("empty ring")
		}
	})

	// Region ids are 16-bit per memnode: a fresh directory per batch keeps
	// placements from running out.
	var dir *cluster.Directory
	tenant := 0
	place := probekit.NsPerCall(40, 4000, func() {
		if tenant%4000 == 0 {
			dir = cluster.NewDirectory([]int{0, 1, 2})
		}
		tenant++
		if _, err := dir.Place(tenant, 2, 256<<10); err != nil {
			probekit.Fail(err)
		}
	})
	probekit.Emit(map[string]float64{"cluster.ring_lookup_ns": lookup, "cluster.directory_place_us": place / 1e3})
}
