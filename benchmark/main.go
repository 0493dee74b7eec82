// Command benchmark is the repository's benchmark: five closed-loop workloads
// on the live software datapath (core/rings → cache → rdma/wire → engine/spot
// or engine/p4 → memnode), each generated, driven and verified by this one
// process. See README.md in this directory for the definitions.
//
//	bash benchmark/run.sh --workload spot_read_64 --seed 1 --seconds 20 --trace 0
//
// prints every end-to-end metric by name; --trace 1 prints the per-layer
// metrics of a traced run instead; -probes runs only the isolated layer
// probes; -selfcheck runs the noise self-check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var processStart = time.Now()

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the generated operations and data pattern")
		seconds   = flag.Int("seconds", 20, "length of the measured phase")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		probes    = flag.Bool("probes", false, "run only the isolated layer probes")
		selfcheck = flag.Bool("selfcheck", false, "run every workload several times and check run-to-run noise against the bounds")
		runs      = flag.Int("runs", 5, "selfcheck: runs per workload")
		outDir    = flag.String("out", "", "directory for detailed reports (default: reports/ beside the executable's directory)")
	)
	flag.Parse()

	// One P: the driver, the engine and the NIC inbox goroutines time-share
	// it. More Ps than hardware threads on the 2-vCPU sandbox turned p99 into
	// a scheduler lottery (README, "Why GOMAXPROCS=1").
	runtime.GOMAXPROCS(1)

	exe, err := os.Executable()
	if err != nil {
		fatal("cannot locate the executable: %v", err)
	}
	binDir := filepath.Dir(exe)
	if *outDir == "" {
		*outDir = filepath.Join(filepath.Dir(binDir), "reports")
	}

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(exe, *runs, *seconds, *seed))
	case *probes:
		m, notes := runProbes(binDir)
		printTable(os.Stdout, probeDefs(), m, nil)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, n)
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal("unknown workload %q; choose one of %s", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("report directory: %v", err)
	}
	env := readEnvironment()
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))

	var line contractLine
	var runErr error
	if *trace == 0 {
		res := runGated(w, *seed, *seconds, processStart)
		runErr = res.err
		var missing []string
		line.Metrics, missing = res.metrics.contract(endToEnd)
		line.Attempted, line.Failed = res.attempted, res.failed
		fmt.Printf("workload %s seed %d: %d s measured in %d intervals, %d samples, GOMAXPROCS=%d nproc=%d\n",
			w.name, *seed, *seconds, res.intervals, res.samples, env.GOMAXPROCS, env.NProc)
		printTable(os.Stdout, endToEnd, res.metrics, wholeNotes(res.whole))
		fmt.Printf("  %-32s %14.4f %-6s (ungated; whole run %.4f)\n", "lat_p99_us", res.p99Us, "us", res.whole["lat_p99_us"])
		if len(missing) > 0 && runErr == nil {
			runErr = fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
		}
		if err := writeJSON(base+".json", gatedReport(w, *seed, *seconds, env, res)); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: report: %v\n", err)
		}
	} else {
		res := runTraced(w, *seed, *seconds, processStart, binDir, base)
		runErr = res.err
		var missing []string
		line.Metrics, missing = res.metrics.contract(perLayer)
		line.Attempted, line.Failed = res.attempted, res.failed
		fmt.Printf("workload %s seed %d: traced run, GOMAXPROCS=%d nproc=%d\n", w.name, *seed, env.GOMAXPROCS, env.NProc)
		printTable(os.Stdout, perLayer, res.metrics, nil)
		for _, n := range res.notes {
			fmt.Fprintln(os.Stderr, "benchmark:", n)
		}
		if len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: missing per-layer metrics: %s\n", strings.Join(missing, ", "))
		}
		if err := writeJSON(base+".json", tracedReport(w, *seed, *seconds, env, res)); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: report: %v\n", err)
		}
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	line.Correct = runErr == nil && line.Failed == 0
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, runErr)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

func wholeNotes(whole map[string]float64) map[string]string {
	notes := map[string]string{}
	for k, v := range whole {
		notes[k] = fmt.Sprintf("(whole run %.4f)", v)
	}
	return notes
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
