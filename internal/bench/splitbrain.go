package bench

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"cowbird/internal/system"
)

// The split-brain sweep prices the fencing and integrity machinery of
// DESIGN.md §14 and proves the healthy path barely pays for it:
//
//   - fencing overhead: the same closed-loop workload with epoch fencing
//     disabled vs enabled (the default). The fenced run adds one epoch
//     comparison per inbound WRITE on the responder and a stamped BTH field
//     that was already on the wire, so the budget is tight: <2% ops/s.
//   - zombie-detection latency: how long after a rival promotion bumps the
//     epoch at every replica does the deposed engine demote itself? The
//     zombie learns only from its own NAKed writes, so this is bounded by
//     its heartbeat cadence plus one round trip — no timeout in the path.
//   - scrub throughput: how fast a pass checksums a replicated region and
//     how fast repair rewrites divergent chunks, the background cost of the
//     integrity tier.
//
// Results land in BENCH_split_brain.json via cowbird-bench -sweep fence.

// FencePoint is one fencing mode's measured best-of-N throughput.
type FencePoint struct {
	Mode       string    `json:"mode"` // "unfenced" | "fenced"
	Ops        int       `json:"ops"`
	Reps       int       `json:"reps"`
	OpsPerSec  []float64 `json:"ops_per_sec_reps"`
	BestOpsSec float64   `json:"best_ops_per_sec"`
}

// SplitBrainReport is the document committed as BENCH_split_brain.json.
type SplitBrainReport struct {
	hostEnv
	GeneratedAt string `json:"generated_at"`
	Workload    string `json:"workload"`

	// Healthy-path fencing overhead, best-of-N interleaved reps.
	Fencing []FencePoint `json:"fencing"`
	// OverheadPct is (unfenced - fenced)/unfenced in percent; negative means
	// the fenced run measured faster (within noise). Budget: < 2.
	OverheadPct  float64 `json:"fencing_overhead_pct"`
	BudgetPct    float64 `json:"budget_pct"`
	WithinBudget bool    `json:"within_budget"`
	// Resolved says the reps separate the two modes: every fenced rep ran
	// below every unfenced rep. The peaks of ~3 ms runs differ by several
	// percent either way from host noise alone, so only a resolved overhead
	// can fail the budget; an unresolved one is reported and passes.
	Resolved bool `json:"fencing_resolved"`

	// Zombie detection: rival promotion bumps every fencer to epoch 2, and
	// the idle-but-heartbeating old engine must observe its first fenced NAK
	// and demote. Per-trial latency, fresh deployment each.
	ZombieDetectMicros []float64 `json:"zombie_detect_us"`
	ZombieDetectP50    float64   `json:"zombie_detect_p50_us"`
	ZombieDetectMax    float64   `json:"zombie_detect_max_us"`

	// Scrub: one pass over a 2-replica region with a corrupted stripe.
	ScrubRegionBytes   int     `json:"scrub_region_bytes"`
	ScrubChunkBytes    int     `json:"scrub_chunk_bytes"`
	CorruptChunks      int     `json:"scrub_corrupt_chunks"`
	RepairedChunks     int64   `json:"scrub_repaired_chunks"`
	ScrubPassMS        float64 `json:"scrub_pass_ms"`
	ScrubScanBytesSec  float64 `json:"scrub_scan_bytes_per_sec"`
	RepairedBytesSec   float64 `json:"scrub_repaired_bytes_per_sec"`
	CleanPassMS        float64 `json:"scrub_clean_pass_ms"`
	CleanScanBytesSec  float64 `json:"scrub_clean_scan_bytes_per_sec"`
	ScrubReplicaCount  int     `json:"scrub_replicas"`
	ScrubDetectedExact bool    `json:"scrub_detected_exactly_corrupted"`
}

const fenceReps = 5

// fenceThroughput measures mixedThroughput on a fresh single-replica
// deployment with fencing on or off.
func fenceThroughput(fenced bool, ops int) (float64, error) {
	cfg := system.DefaultConfig()
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	cfg.DisableFencing = !fenced
	sys, err := system.New(cfg)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	sum, err := mixedThroughput(sys, ops, 0xF5)
	return sum.opsPerSec, err
}

// zombieDetectTrial deploys a fenced system, lets it heartbeat, then plays
// the rival promotion by hand — epoch 2 at the pool and the compute node —
// and times how long the engine takes to demote itself off its own NAKs.
func zombieDetectTrial() (time.Duration, error) {
	cfg := system.DefaultConfig()
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	cfg.Spot.HeartbeatInterval = time.Millisecond
	sys, err := system.New(cfg)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	th, err := sys.Client.Thread(0)
	if err != nil {
		return 0, err
	}
	// Warm the datapath so the engine is in its steady heartbeat rhythm.
	if err := th.WriteSync(0, bytes.Repeat([]byte{0x11}, 64), 0, 10*time.Second); err != nil {
		return 0, err
	}

	t0 := time.Now()
	for _, pool := range sys.Pools {
		if err := pool.Fence(2); err != nil {
			return 0, err
		}
	}
	if err := sys.Client.Fence(2); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sys.Spot.Fenced() {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: zombie never demoted")
		}
		time.Sleep(20 * time.Microsecond)
	}
	return time.Since(t0), nil
}

// scrubThroughput measures one detect+repair pass over a 2-replica region
// with a corrupted stripe on the non-primary, then a clean pass (the steady
// state: pure checksum scan, no divergence).
func (r *SplitBrainReport) scrubThroughput() error {
	cfg := system.DefaultConfig()
	cfg.RegionSize = 8 << 20
	cfg.PoolReplicas = 2
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	sys, err := system.New(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()

	chunk := 64 << 10 // spot.Config default ScrubChunk
	r.ScrubRegionBytes = cfg.RegionSize
	r.ScrubChunkBytes = chunk
	r.ScrubReplicaCount = 2

	// Seed both replicas identically out-of-band (the datapath would work
	// too, but the bench measures scrubbing, not workload writes), then
	// corrupt a stripe of chunks on replica 1.
	pattern := bytes.Repeat([]byte{0x3C}, 1<<20)
	for off := 0; off < cfg.RegionSize; off += len(pattern) {
		for _, pool := range sys.Pools {
			if err := pool.Poke(0, uint64(off), pattern); err != nil {
				return err
			}
		}
	}
	const corrupt = 16
	r.CorruptChunks = corrupt
	garbage := bytes.Repeat([]byte{0xDB}, 257) // deliberately not chunk-aligned
	for i := 0; i < corrupt; i++ {
		if err := sys.Pools[1].Poke(0, uint64(i*2*chunk+19), garbage); err != nil {
			return err
		}
	}

	t0 := time.Now()
	if err := sys.Spot.ScrubPass(); err != nil {
		return err
	}
	pass := time.Since(t0)
	st := sys.Spot.Stats()
	r.RepairedChunks = st.ScrubRepairs
	r.ScrubPassMS = float64(pass.Microseconds()) / 1e3
	scanned := float64(cfg.RegionSize * 2) // both replicas read and summed
	r.ScrubScanBytesSec = scanned / pass.Seconds()
	r.RepairedBytesSec = float64(st.ScrubRepairs*int64(chunk)) / pass.Seconds()
	r.ScrubDetectedExact = st.ScrubRepairs == corrupt

	t1 := time.Now()
	if err := sys.Spot.ScrubPass(); err != nil {
		return err
	}
	clean := time.Since(t1)
	r.CleanPassMS = float64(clean.Microseconds()) / 1e3
	r.CleanScanBytesSec = scanned / clean.Seconds()
	return nil
}

// runSplitBrainReport runs the full sweep: interleaved fencing-overhead
// reps, zombie-detection trials, and the scrub pass.
func runSplitBrainReport(ops, _ int) (SplitBrainReport, error) {
	r := SplitBrainReport{
		hostEnv:     currentEnv(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Workload:    "closed loop, 50/50 read:write, 256 B ops, window 16, single replica",
		BudgetPct:   2,
	}
	// Reps alternate unfenced and fenced so slow drift in the host hits both
	// modes equally; the peaks are the comparable quantity.
	r.Fencing = []FencePoint{
		{Mode: "unfenced", Ops: ops, Reps: fenceReps},
		{Mode: "fenced", Ops: ops, Reps: fenceReps},
	}
	for rep := 0; rep < fenceReps; rep++ {
		for i := range r.Fencing {
			pt := &r.Fencing[i]
			opsSec, err := fenceThroughput(pt.Mode == "fenced", ops)
			if err != nil {
				return r, fmt.Errorf("fence throughput %s rep %d: %w", pt.Mode, rep, err)
			}
			pt.OpsPerSec = append(pt.OpsPerSec, opsSec)
			pt.BestOpsSec = slices.Max(pt.OpsPerSec)
		}
	}
	if off := r.Fencing[0].BestOpsSec; off > 0 {
		r.OverheadPct = 100 * (off - r.Fencing[1].BestOpsSec) / off
	}
	r.WithinBudget = r.OverheadPct < r.BudgetPct
	r.Resolved = r.Fencing[1].BestOpsSec < slices.Min(r.Fencing[0].OpsPerSec)

	const trials = 5
	for i := 0; i < trials; i++ {
		d, err := zombieDetectTrial()
		if err != nil {
			return r, err
		}
		r.ZombieDetectMicros = append(r.ZombieDetectMicros, float64(d.Nanoseconds())/1e3)
	}
	r.ZombieDetectP50, r.ZombieDetectMax = medianMax(r.ZombieDetectMicros)

	if err := r.scrubThroughput(); err != nil {
		return r, err
	}
	return r, nil
}

// Check is the split-brain gate: healthy-path fencing overhead inside its
// budget unless the reps cannot resolve it, the zombie demoted in bounded
// time, and one scrub pass repairing exactly the corrupted chunks.
func (r SplitBrainReport) Check() error {
	switch {
	case !r.WithinBudget && r.Resolved:
		return fmt.Errorf("split brain: fencing overhead %.2f%% exceeds the %.0f%% budget, every fenced rep below every unfenced one", r.OverheadPct, r.BudgetPct)
	case len(r.ZombieDetectMicros) == 0 || r.ZombieDetectMax >= 1e6:
		return fmt.Errorf("split brain: worst zombie demotion %.0f us over %d trials, want < 1 s",
			r.ZombieDetectMax, len(r.ZombieDetectMicros))
	case !r.ScrubDetectedExact:
		return fmt.Errorf("split brain: scrub repaired %d chunks, %d were corrupted", r.RepairedChunks, r.CorruptChunks)
	}
	return nil
}
