package bench

import (
	"cowbird/internal/cpumodel"
	"cowbird/internal/perfsim"
)

// The ablations probe the design choices DESIGN.md §5 calls out. They are
// not paper exhibits; they quantify why the design is the way it is.

// AblationProbeRate sweeps the Phase II probe pacing: faster probes cut
// worst-case discovery latency but cost probe bandwidth — the §5.2
// trade-off ("users can trade off extra probe memory accesses with
// worst-case completion latency").
func AblationProbeRate() Experiment {
	e := Experiment{
		ID:     "ablation-probe",
		Title:  "Probe-interval sweep: discovery latency vs probe traffic",
		XLabel: "probe interval (us)",
		YLabel: "latency (us) / probe kpps",
	}
	intervals := []float64{500, 1000, 2000, 4000, 8000, 16000}
	lat := Series{Label: "read p50 latency (us)"}
	pps := Series{Label: "probe rate (kpps)"}
	for _, iv := range intervals {
		m := cpumodel.Default()
		m.ProbeInterval = iv
		// Closed loop, one op at a time: discovery delay dominates.
		r := perfsim.Run(perfsim.Config{
			System: perfsim.CowbirdSpot, Workload: perfsim.RawReads,
			Threads: 1, RecordSize: 64, RemoteFraction: 1, Window: 1,
			OpsPerThread: OpsPerThread, Model: m,
		})
		lat.X = append(lat.X, iv/1000)
		lat.Y = append(lat.Y, r.LatencyP50/1000)
		pps.X = append(pps.X, iv/1000)
		pps.Y = append(pps.Y, r.ProbePktsPerSec/1000)
	}
	e.Series = []Series{lat, pps}
	e.Notes = append(e.Notes, "the paper's prototype probes once per 2us for FASTER")
	return e
}

// AblationBatchSize sweeps the Cowbird-Spot response batch: larger batches
// raise throughput at high thread counts (fewer compute-RNIC messages) at
// the cost of completion latency (§6, Figures 8 vs 13).
func AblationBatchSize() Experiment {
	e := Experiment{
		ID:     "ablation-batch",
		Title:  "BATCH_SIZE sweep: throughput@16threads vs single-thread p99 latency",
		XLabel: "batch size",
		YLabel: "MOPS / us",
	}
	tput := Series{Label: "throughput @16 threads (MOPS)"}
	p99 := Series{Label: "p99 latency @1 thread (us)"}
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
		rt := perfsim.Run(perfsim.Config{
			System: perfsim.CowbirdSpot, Workload: perfsim.HashProbe,
			Threads: 16, RecordSize: 64, RemoteFraction: 0.95,
			BatchSize: b, OpsPerThread: OpsPerThread,
		})
		rl := perfsim.Run(perfsim.Config{
			System: perfsim.CowbirdSpot, Workload: perfsim.RawReads,
			Threads: 1, RecordSize: 64, RemoteFraction: 1,
			BatchSize: b, OpsPerThread: OpsPerThread,
		})
		tput.X = append(tput.X, float64(b))
		tput.Y = append(tput.Y, rt.ThroughputMOPS)
		p99.X = append(p99.X, float64(b))
		p99.Y = append(p99.Y, rl.LatencyP99/1000)
	}
	e.Series = []Series{tput, p99}
	return e
}

// AblationPauseRule compares the switch's pause-all-reads rule against the
// spot agent's range-overlap check under increasingly write-heavy mixes
// (§5.3 vs §6): the coarse rule costs throughput exactly when writes are
// frequent.
func AblationPauseRule() Experiment {
	e := Experiment{
		ID:     "ablation-pause",
		Title:  "Pause-all-reads (switch rule) vs range-overlap check (agent rule)",
		XLabel: "write fraction",
		YLabel: "throughput (MOPS, 8 threads)",
	}
	rangeCheck := Series{Label: "range-overlap check (Cowbird-Spot)"}
	pauseAll := Series{Label: "pause-all-reads (switch rule)"}
	for _, wf := range []float64{0, 0.1, 0.25, 0.5, 0.75} {
		base := perfsim.Config{
			System: perfsim.CowbirdSpot, Workload: perfsim.HashProbe,
			Threads: 8, RecordSize: 64, RemoteFraction: 0.95,
			WriteFraction: wf, OpsPerThread: OpsPerThread,
		}
		r1 := perfsim.Run(base)
		base.PauseAllReads = true
		r2 := perfsim.Run(base)
		rangeCheck.X = append(rangeCheck.X, wf)
		rangeCheck.Y = append(rangeCheck.Y, r1.ThroughputMOPS)
		pauseAll.X = append(pauseAll.X, wf)
		pauseAll.Y = append(pauseAll.Y, r2.ThroughputMOPS)
	}
	e.Series = []Series{rangeCheck, pauseAll}
	return e
}

func init() {
	registry["ablation-probe"] = AblationProbeRate
	registry["ablation-batch"] = AblationBatchSize
	registry["ablation-pause"] = AblationPauseRule
}
