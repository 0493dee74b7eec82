// Probe system times deployment assembly in isolation, the bulk of set-up:
// cowbird.NewSystem on the default configuration (NICs, rings, region
// registration, QP wiring, fencing, engine start) and Fleet.AddTenant on the
// default fleet (directory place, region allocation, client, QP wiring,
// engine registration), each as a median over repetitions.
package main

import (
	"sort"
	"time"

	"cowbird"
	"cowbird/benchmark/probekit"
	"cowbird/internal/system"
)

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

func main() {
	probekit.Pin()
	var news []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		sys, err := cowbird.NewSystem(cowbird.DefaultConfig())
		if err != nil {
			probekit.Fail(err)
		}
		news = append(news, float64(time.Since(t0).Nanoseconds())/1e6)
		sys.Close()
	}

	fleet, err := system.NewFleet(system.DefaultFleetConfig())
	if err != nil {
		probekit.Fail(err)
	}
	defer fleet.Close()
	var adds []float64
	for id := 0; id < 64; id++ {
		t0 := time.Now()
		if _, err := fleet.AddTenant(id); err != nil {
			probekit.Fail(err)
		}
		adds = append(adds, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	probekit.Emit(map[string]float64{"system.new_ms": median(news), "system.fleet_add_tenant_us": median(adds)})
}
