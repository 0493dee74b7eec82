package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"time"
)

// layerProbe is one isolated probe: its own `package main` under
// probes/<name>/, built beside this binary and run as a subprocess. A probe
// times public functions of a single layer, so its numbers move only when
// that layer does. Because each is a separate program, one that no longer
// builds after a later change loses only its own metrics (reported as
// missing); the gated run never depends on a probe.
type layerProbe struct {
	name    string
	metrics []string
}

var layerProbes = []layerProbe{
	{"rings", []string{"rings.push_read_ns", "rings.push_write_4k_ns", "rings.read_response_ns"}},
	{"wire", []string{"wire.serialize_64_ns", "wire.serialize_1k_ns", "wire.decode_64_ns", "wire.decode_1k_ns", "wire.allocs_per_pkt"}},
	{"rdma", []string{"rdma.write_rtt_64_ns", "rdma.read_rtt_64_ns", "rdma.write_4k_ns_per_op", "rdma.interposed_rtt_64_ns"}},
	{"memnode", []string{"memnode.dma_read_4k_ns", "memnode.dma_write_4k_ns"}},
	{"cache", []string{"cache.get_hit_ns", "cache.insert_ns"}},
	{"cluster", []string{"cluster.ring_lookup_ns", "cluster.directory_place_us"}},
	{"system", []string{"system.new_ms", "system.fleet_add_tenant_us"}},
}

// probeTimeout bounds one probe; each takes well under a second.
const probeTimeout = 20 * time.Second

// probeDefs are the per-layer metric definitions the probes produce.
func probeDefs() []metricDef {
	byName := map[string]metricDef{}
	for _, d := range perLayer {
		byName[d.Name] = d
	}
	var defs []metricDef
	for _, p := range layerProbes {
		for _, n := range p.metrics {
			defs = append(defs, byName[n])
		}
	}
	return defs
}

// runProbes runs every probe binary found in binDir and merges what they
// print: one JSON object of metric name → value.
func runProbes(binDir string) (metricSet, []string) {
	out := metricSet{}
	var notes []string
	for _, p := range layerProbes {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		data, err := exec.CommandContext(ctx, filepath.Join(binDir, "probes", p.name)).Output()
		cancel()
		if err != nil {
			notes = append(notes, fmt.Sprintf("probe %s did not run (%v): its metrics are missing", p.name, err))
			continue
		}
		var got map[string]float64
		if err := json.Unmarshal(data, &got); err != nil {
			notes = append(notes, fmt.Sprintf("probe %s printed no result (%v): its metrics are missing", p.name, err))
			continue
		}
		for _, n := range p.metrics {
			if v, ok := got[n]; ok {
				out.set(n, v)
			}
		}
	}
	return out, notes
}
