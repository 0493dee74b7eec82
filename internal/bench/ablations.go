package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cowbird/internal/cpumodel"
	"cowbird/internal/perfsim"
	"cowbird/internal/system"
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

// AblationGoBackN measures the functional cost of loss recovery: the real
// Cowbird-P4 engine (not the model) runs a fixed workload under increasing
// frame-loss rates, reporting completion time and recovery counts. This is
// the §5.3 drain-and-resync machinery under stress.
func AblationGoBackN() Experiment {
	e := Experiment{
		ID:     "ablation-gbn",
		Title:  "Go-Back-N recovery cost vs frame loss (functional Cowbird-P4)",
		Cols:   []string{"ops", "wall time", "recoveries", "NAKs", "completed"},
		XLabel: "loss %",
	}
	for _, loss := range []int{0, 5, 10, 20} {
		cfg := system.DefaultConfig()
		cfg.Engine = system.EngineP4
		cfg.P4.ProbeInterval = 2 * time.Microsecond
		cfg.P4.Timeout = 20 * time.Millisecond
		sys, err := system.New(cfg)
		if err != nil {
			e.Notes = append(e.Notes, "setup failed: "+err.Error())
			continue
		}
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(int64(loss) + 1))
		sys.Fabric.SetLossFn(func([]byte) bool {
			mu.Lock()
			defer mu.Unlock()
			return rng.Intn(100) < loss
		})
		th, _ := sys.Client.Thread(0)
		g := th.PollCreate()
		const ops = 40
		start := time.Now()
		issued := 0
		for i := 0; i < ops; i++ {
			data := make([]byte, 300)
			for j := range data {
				data[j] = byte(i)
			}
			if id, err := th.AsyncWrite(0, data, uint64(i)*512); err == nil {
				if g.Add(id) == nil {
					issued++
				}
			}
		}
		done := 0
		deadline := time.Now().Add(60 * time.Second)
		for done < issued && time.Now().Before(deadline) {
			done += len(g.Wait(64, 500*time.Millisecond))
		}
		wall := time.Since(start)
		st := sys.P4.Stats()
		sys.Close()
		e.Rows = append(e.Rows, Row{
			Label: fmt.Sprintf("%d%% loss", loss),
			Values: []string{
				fmt.Sprintf("%d", issued),
				wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%d", st.Recoveries),
				fmt.Sprintf("%d", st.NAKs),
				fmt.Sprintf("%d/%d", done, issued),
			},
		})
	}
	e.Notes = append(e.Notes,
		"functional run (wall clock): recovery cost = drain (one timeout) + control-plane resync + re-execution")
	return e
}

// AblationFailover sweeps the internal/ha heartbeat interval against the
// failover blackout: a slower heartbeat costs less engine bandwidth but
// stretches the lease timeout (4× the heartbeat) and with it the window in
// which a preempted spot engine leaves the application stalled. The
// blackout is decomposed into the protocol's phases (detect / promote /
// reconstruct / replay) by the perfsim failover model.
func AblationFailover() Experiment {
	e := Experiment{
		ID:     "ablation-failover",
		Title:  "Heartbeat-interval sweep: spot-preemption blackout vs detection cost",
		XLabel: "heartbeat interval (ms)",
		YLabel: "ms / ops",
	}
	blackout := Series{Label: "blackout (ms)"}
	detect := Series{Label: "detection share (ms)"}
	backlog := Series{Label: "ring backlog (kops)"}
	var r perfsim.FailoverResult
	for _, hbMS := range []float64{0.5, 1, 2, 4} {
		r = perfsim.RunFailover(perfsim.FailoverConfig{
			Base: perfsim.Config{
				System: perfsim.CowbirdSpot, Workload: perfsim.HashProbe,
				Threads: 8, RecordSize: 64, RemoteFraction: 0.95,
				OpsPerThread: OpsPerThread,
			},
			HeartbeatNS: hbMS * 1e6,
		})
		blackout.X = append(blackout.X, hbMS)
		blackout.Y = append(blackout.Y, r.BlackoutNS/1e6)
		detect.X = append(detect.X, hbMS)
		detect.Y = append(detect.Y, r.DetectNS/1e6)
		backlog.X = append(backlog.X, hbMS)
		backlog.Y = append(backlog.Y, r.BacklogOps/1e3)
	}
	e.Series = []Series{blackout, detect, backlog}
	e.Notes = append(e.Notes,
		"blackout = detect + promote(0, warm standby) + reconstruct + replay; detection dominates",
		fmt.Sprintf("at 4ms heartbeat: reconstruct %.0fus, replay %.0fus, drain %.1fms at 2x catch-up",
			r.ReconstructNS/1e3, r.ReplayNS/1e3, r.DrainNS/1e6),
		"requests issued during the blackout buffer in the compute-side rings and replay exactly once")
	return e
}

func init() {
	registry["ablation-probe"] = AblationProbeRate
	registry["ablation-batch"] = AblationBatchSize
	registry["ablation-pause"] = AblationPauseRule
	registry["ablation-gbn"] = AblationGoBackN
	registry["ablation-failover"] = AblationFailover
}
