// Fasterkv: the paper's §7 case study, run functionally — a FASTER-style
// key-value store whose hybrid log spills its read-only region to
// disaggregated memory through a Cowbird IDevice. The compute node never
// posts an RDMA verb: the offload engine performs every transfer, including
// the store's background page flushes.
//
// Loads a YCSB-style dataset larger than the store's in-memory log, then
// serves a read-heavy workload, counting how many reads were served from
// memory versus the Cowbird-backed cold region.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"time"

	"cowbird"
	"cowbird/internal/devices"
	"cowbird/internal/kv"
	"cowbird/internal/ycsb"
)

func main() {
	records := flag.Int64("records", 4000, "records to load")
	ops := flag.Int("ops", 4000, "YCSB operations to run")
	valueSize := flag.Int("value", 64, "value size in bytes")
	dist := flag.String("dist", "zipfian", "key distribution: uniform or zipfian")
	flag.Parse()

	// One queue set for the application session plus one for the store's
	// log flusher.
	cfg := cowbird.DefaultConfig()
	cfg.Threads = 2
	cfg.RegionSize = 32 << 20
	sys, err := cowbird.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	dev := devices.NewCowbirdDevice(sys.Client, sys.Region)
	store, err := kv.Open(dev, kv.Config{
		IndexSize:    1 << 14,
		MemSize:      1 << 17, // 128 KiB of "local memory" forces spilling
		PageSize:     1 << 13,
		DiskReadSize: 512,
		MaxInflight:  64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	session := store.NewSession(0)

	d := ycsb.Uniform
	if *dist == "zipfian" {
		d = ycsb.Zipfian
	}
	w := ycsb.WorkloadB(*records, *valueSize, d)
	gen, err := ycsb.NewGenerator(w, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Load phase.
	start := time.Now()
	var val []byte
	for i := int64(0); i < *records; i++ {
		val = gen.Value(i, val)
		if err := session.Upsert(gen.Key(i), val); err != nil {
			log.Fatalf("load %d: %v", i, err)
		}
	}
	fmt.Printf("loaded %d records in %v; log tail=%d head=%d (cold bytes: %d)\n",
		*records, time.Since(start).Round(time.Millisecond),
		store.TailAddress(), store.HeadAddress(), store.HeadAddress())

	// Run phase: YCSB-B (95% reads / 5% updates).
	hot, cold, updates := 0, 0, 0
	start = time.Now()
	verify := func(idx int64, got []byte) {
		want := gen.Value(idx, nil)
		if !bytes.Equal(got, want) {
			log.Fatalf("record %d corrupted", idx)
		}
	}
	for i := 0; i < *ops; i++ {
		idx := gen.NextIndex()
		if gen.NextOp() == ycsb.OpUpdate {
			val = gen.Value(idx, val)
			if err := session.Upsert(gen.Key(idx), val); err != nil {
				log.Fatal(err)
			}
			updates++
			continue
		}
		got, status, err := session.Read(gen.Key(idx), idx)
		if err != nil {
			log.Fatal(err)
		}
		switch status {
		case kv.StatusOK:
			hot++
			verify(idx, got)
		case kv.StatusPending:
			cold++
			// Complete the cold read through the Cowbird device (the §7
			// pattern: poll_wait periodically).
			deadline := time.Now().Add(10 * time.Second)
			done := false
			for !done {
				results, err := session.CompletePending(true)
				if err != nil {
					log.Fatal(err)
				}
				for _, r := range results {
					if r.Status != kv.StatusOK {
						log.Fatalf("cold read of record %v: %v", r.Ctx, r.Status)
					}
					verify(r.Ctx.(int64), r.Value)
					done = true
				}
				if time.Now().After(deadline) {
					log.Fatal("cold read stalled")
				}
			}
		case kv.StatusNotFound:
			log.Fatalf("record %d missing", idx)
		}
	}
	dur := time.Since(start)
	fmt.Printf("ran %d YCSB-B ops (%s) in %v: %d hot reads, %d cold reads via Cowbird, %d updates\n",
		*ops, d, dur.Round(time.Millisecond), hot, cold, updates)
	ks := store.Stats()
	fmt.Printf("store: %d updates in place, %d records appended, %d log pages flushed\n",
		ks.InPlaceUpdates, ks.Appends, ks.PagesFlushed)
	st := sys.Spot.Stats()
	fmt.Printf("engine: %d entries served (%d reads, %d writes), %d response batches, %d conflict stalls\n",
		st.EntriesServed, st.ReadsExecuted, st.WritesExecuted, st.ResponseBatches, st.ConflictStalls)
}
