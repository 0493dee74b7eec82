// Command cowbird-bench regenerates the tables and figures of the Cowbird
// paper's evaluation (§8) from the calibrated performance model and prints
// them as text series/tables.
//
// Usage:
//
//	cowbird-bench                 # run every exhibit
//	cowbird-bench -exp fig8a      # one exhibit
//	cowbird-bench -list           # list exhibit ids
//	cowbird-bench -ops 10000      # longer runs (tighter steady state)
//	cowbird-bench -spotjson BENCH_spot_datapath.json
//	                              # run the real-engine scaling sweep and
//	                              # write the Workers=1 vs worker-per-queue
//	                              # report
//	cowbird-bench -fabricjson BENCH_fabric_datapath.json
//	                              # run the raw NIC+fabric datapath sweep and
//	                              # write its report
//	cowbird-bench -telemetryjson BENCH_telemetry_overhead.json
//	                              # measure telemetry-off vs sampled vs
//	                              # every-request instrumentation overhead
//	cowbird-bench -cachejson BENCH_client_cache.json
//	                              # run the client-cache skew sweep (cache
//	                              # off/on x uniform..zipf-0.99 + sequential)
//	cowbird-bench -scalingjson BENCH_engine_scaling.json
//	                              # run the bounded-state engine-scaling sweep
//	                              # (fixed active set, 4..1024 registered
//	                              # queue sets); -scalingmax 64 for CI smoke
//	cowbird-bench -fencejson BENCH_split_brain.json
//	                              # measure split-brain fencing: healthy-path
//	                              # overhead (fenced vs unfenced), zombie
//	                              # detection latency, scrub throughput
//	cowbird-bench -tenantjson BENCH_multitenant_scale.json
//	                              # run the multi-tenant fleet sweep (fixed
//	                              # active set, 64..4096 registered tenants)
//	                              # plus the noisy-neighbor QoS scenario;
//	                              # -tenantmax 256 for CI smoke
//	cowbird-bench -gmp 2          # cap the GOMAXPROCS ladder of the spot and
//	                              # fabric sweeps (CI smoke; default full 1-8)
//
// Every -*json output path is probed for writability before any sweep runs;
// an unwritable path fails immediately with a non-zero exit instead of
// discarding minutes of measurement at the final write.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cowbird/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (default: all); comma-separated list allowed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	ops := flag.Int("ops", 2500, "simulated operations per thread per run")
	spotJSON := flag.String("spotjson", "", "write the spot-engine scaling report (real engine) to this path and exit")
	fabricJSON := flag.String("fabricjson", "", "write the fabric-datapath scaling report (raw NIC pair) to this path and exit")
	chaosJSON := flag.String("chaosjson", "", "write the pool fault-tolerance report (replication cost + crash recovery latency) to this path and exit")
	telemetryJSON := flag.String("telemetryjson", "", "write the telemetry overhead report (off vs sampled vs every-request) to this path and exit")
	cacheJSON := flag.String("cachejson", "", "write the client-cache skew sweep report (cache off/on x uniform..zipfian + sequential) to this path and exit")
	scalingJSON := flag.String("scalingjson", "", "write the engine-scaling report (fixed active set vs 4..1024 registered queue sets) to this path and exit")
	scalingMax := flag.Int("scalingmax", 0, "cap the engine-scaling ladder at this many registered queue sets (0: full 4..1024); CI smoke uses -scalingmax 64")
	fenceJSON := flag.String("fencejson", "", "write the split-brain fencing report (healthy-path overhead + zombie detection + scrub throughput) to this path and exit")
	tenantJSON := flag.String("tenantjson", "", "write the multi-tenant fleet-scaling report (fixed active set vs 64..4096 registered tenants + noisy-neighbor QoS) to this path and exit")
	tenantMax := flag.Int("tenantmax", 0, "cap the multi-tenant ladder at this many registered tenants (0: full 64..4096); CI smoke uses -tenantmax 256")
	gmp := flag.Int("gmp", 0, "cap the GOMAXPROCS sweep at this core count (0: full 1/2/4/8 ladder); CI smoke uses -gmp 2")
	flag.Parse()

	if *gmp > 0 {
		var sweep []int
		for _, g := range bench.GMPSweep {
			if g <= *gmp {
				sweep = append(sweep, g)
			}
		}
		if len(sweep) == 0 {
			sweep = []int{*gmp}
		}
		bench.GMPSweep = sweep
	}

	// Fail fast on unwritable report paths: the sweeps behind these flags run
	// for minutes, and learning at the end that the directory is read-only
	// (or the path names a directory) throws all of it away.
	for _, out := range []string{*spotJSON, *fabricJSON, *chaosJSON, *telemetryJSON, *cacheJSON, *scalingJSON, *fenceJSON, *tenantJSON} {
		if out == "" {
			continue
		}
		f, err := os.OpenFile(out, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cowbird-bench: report path not writable: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	bench.OpsPerThread = *ops

	if *spotJSON != "" {
		start := time.Now()
		if err := bench.WriteSpotDatapathJSON(*spotJSON, *ops); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *spotJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	if *fabricJSON != "" {
		start := time.Now()
		if err := bench.WriteFabricDatapathJSON(*fabricJSON, *ops); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *fabricJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	if *telemetryJSON != "" {
		start := time.Now()
		if err := bench.WriteTelemetryOverheadJSON(*telemetryJSON, *ops); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *telemetryJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	if *cacheJSON != "" {
		start := time.Now()
		if err := bench.WriteClientCacheJSON(*cacheJSON, *ops); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *cacheJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	if *scalingJSON != "" {
		start := time.Now()
		if err := bench.WriteEngineScalingJSON(*scalingJSON, *ops, *scalingMax); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *scalingJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	if *fenceJSON != "" {
		start := time.Now()
		if err := bench.WriteFenceJSON(*fenceJSON, *ops); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *fenceJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	if *tenantJSON != "" {
		start := time.Now()
		if err := bench.WriteMultiTenantJSON(*tenantJSON, *ops, *tenantMax); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *tenantJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	if *chaosJSON != "" {
		start := time.Now()
		if err := bench.WriteChaosRecoveryJSON(*chaosJSON, *ops); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *chaosJSON, time.Since(start).Round(time.Millisecond))
		return
	}

	ids := bench.IDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		start := time.Now()
		e, err := bench.ByID(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Println(e.Render())
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
