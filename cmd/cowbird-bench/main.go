// Command cowbird-bench regenerates the tables and figures of the Cowbird
// paper's evaluation (§8) from the calibrated performance model and prints
// them as text series/tables, and runs the wall-clock sweeps over the live
// datapath that back the committed BENCH_*.json reports.
//
// Usage:
//
//	cowbird-bench                 # run every exhibit
//	cowbird-bench -exp fig8a      # one exhibit
//	cowbird-bench -list           # list exhibit ids
//	cowbird-bench -ops 10000      # longer runs (tighter steady state)
//	cowbird-bench -sweep <name> -out <path> [-max N] [-ops N]
//	                              # run one live sweep, write its JSON report
//	                              # and apply the report's own gate:
//	  scaling   bounded-state engine scaling: fixed active set, 4..1024
//	            registered queue sets (BENCH_engine_scaling.json)
//	  tenants   multi-tenant fleet: fixed active set, 64..4096 registered
//	            tenants, plus the noisy-neighbor QoS scenario
//	            (BENCH_multitenant_scale.json)
//	  cache     client-cache skew sweep: cache off/on x uniform..zipf-0.99
//	            + sequential (BENCH_client_cache.json)
//	  chaos     pool fault tolerance: replication cost + crash recovery
//	            latency (BENCH_chaos_recovery.json)
//	  fence     split-brain fencing: healthy-path overhead, zombie detection
//	            latency, scrub throughput (BENCH_split_brain.json)
//	                              # -max caps the scaling/tenants ladder (CI
//	                              # smoke: -max 64, -max 256)
//
// The -out path is probed for writability before the sweep runs, and a
// sweep whose gate fails still leaves its report behind; either way the exit
// status is non-zero.
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
	ops := flag.Int("ops", 2500, "operations per thread per run")
	sweep := flag.String("sweep", "", "run one live-datapath sweep ("+strings.Join(bench.SweepNames(), "|")+"), write its report to -out and exit")
	out := flag.String("out", "", "report path of -sweep")
	maxRung := flag.Int("max", 0, "cap the ladder of -sweep scaling/tenants at this many registered queue sets/tenants (0: full)")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	bench.OpsPerThread = *ops

	if *sweep != "" {
		start := time.Now()
		if err := bench.RunSweep(*sweep, *out, *ops, *maxRung); err != nil {
			fmt.Fprintln(os.Stderr, "cowbird-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s in %v\n", *out, time.Since(start).Round(time.Millisecond))
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
