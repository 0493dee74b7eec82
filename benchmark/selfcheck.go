package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// pyQuartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method): the driver judges this benchmark's spread with
// it, so the self-check must compute the same numbers.
func pyQuartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// noiseRow is the run-to-run spread of one (metric, workload) pair.
type noiseRow struct {
	workload, metric string
	bound            float64
	q1, median, q3   float64
	iqrShare         float64 // (q3-q1)/median: the driver's spread
	rangeShare       float64 // (max-min)/median
}

func newNoiseRow(workload string, def metricDef, values []float64) noiseRow {
	r := noiseRow{workload: workload, metric: def.Name, bound: def.Bound}
	r.q1, r.median, r.q3 = pyQuartiles(values)
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	r.iqrShare = (r.q3 - r.q1) / r.median
	r.rangeShare = (hi - lo) / r.median
	return r
}

// allowed is the spread the self-check tolerates: half the bound, measured
// the way the driver measures spread (inter-quartile distance over the
// median). setup_s is held to the whole bound — the driver exempts its spread
// and compares only medians of sets of runs.
func (r noiseRow) allowed() float64 {
	if r.metric == "setup_s" {
		return r.bound
	}
	return r.bound / 2
}

func (r noiseRow) steady() bool { return r.iqrShare <= r.allowed() }

// runSelfcheck runs every workload `runs` times in rotating order, one fresh
// process per run and another seed each time, and prints per (metric,
// workload) the median, quartiles, and the inter-quartile distance and range
// as shares of the median. It returns the process exit code: 1 if any pair is
// not steady.
func runSelfcheck(exe string, runs, seconds int, seed int64) int {
	if runs < 2 {
		fatal("-selfcheck needs at least 2 runs")
	}
	env := readEnvironment()
	total0, steal0, _ := cpuTicks()
	got := map[string]map[string][]float64{} // workload → metric → values
	for r := 0; r < runs; r++ {
		for i := range workloads {
			w := workloads[(i+r)%len(workloads)] // rotate the order between rounds
			s := seed + int64(r)
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			err := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line contractLine
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || jerr != nil || !line.Correct {
				fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d failed (run error %v, parse error %v)\n", w.name, s, err, jerr)
				return 1
			}
			if got[w.name] == nil {
				got[w.name] = map[string][]float64{}
			}
			for name, v := range line.Metrics {
				got[w.name][name] = append(got[w.name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: round %d/%d %s seed %d done\n", r+1, runs, w.name, s)
		}
	}
	total1, steal1, ok := cpuTicks()
	steal := 0.0
	if ok && total1 > total0 {
		steal = 100 * float64(steal1-steal0) / float64(total1-total0)
	}

	fmt.Printf("nproc %d, GOMAXPROCS %d, %s, %s, git %s, host.steal_pct %.2f over the check, %d runs x %d s per workload\n\n",
		env.NProc, env.GOMAXPROCS, env.CPUModel, env.GoVersion, env.GitSHA, steal, runs, seconds)
	fmt.Println("| workload | metric | median | q1 | q3 | iqr/median | range/median | allowed | steady |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			row := newNoiseRow(w.name, def, got[w.name][def.Name])
			verdict := "yes"
			if !row.steady() {
				verdict = "NO"
				code = 1
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				row.workload, row.metric, row.median, row.q1, row.q3, 100*row.iqrShare, 100*row.rangeShare, 100*row.allowed(), verdict)
		}
	}
	return code
}
