// Probe cache times the client-side hot-data tier in isolation: a hit on a
// resident line (shard lock, index probe, copy) and a fill of a line that is
// not resident (probationary insert with eviction), 88 B each — the record
// size kv_ycsb_b reads.
package main

import (
	"fmt"

	"cowbird/benchmark/probekit"
	"cowbird/internal/cache"
)

func main() {
	probekit.Pin()
	c, err := cache.New(cache.DefaultConfig())
	if err != nil {
		probekit.Fail(err)
	}
	cfg := c.Config()
	data := make([]byte, 88)
	dst := make([]byte, 88)

	// Fill far more distinct lines than the tier holds, so every insert
	// takes a slot from another line.
	var line uint64
	insert := probekit.NsPerCall(40, 10000, func() {
		line++
		off := line * uint64(cfg.LineSize)
		c.Insert(0, 0, off, data, c.FillGen(0, off), false)
	})

	// Hits: one line made resident, then read over and over.
	off := (line + 1) * uint64(cfg.LineSize)
	if !c.Insert(0, 0, off, data, c.FillGen(0, off), false) {
		probekit.Fail(fmt.Errorf("fill of the hit line was refused"))
	}
	hit := probekit.NsPerCall(40, 20000, func() {
		if ok, _ := c.Get(0, 0, off, dst); !ok {
			probekit.Fail(fmt.Errorf("resident line missed"))
		}
	})
	probekit.Emit(map[string]float64{"cache.get_hit_ns": hit, "cache.insert_ns": insert})
}
