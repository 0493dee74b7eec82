package bench

import (
	"bytes"
	"fmt"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
	"cowbird/internal/system"
)

// The chaos-recovery sweep measures the real cost of memory-pool fault
// tolerance on the Cowbird-Spot datapath (no perfsim): what replication
// does to steady-state throughput, and how long a primary-pool crash stalls
// the data path before reads flow again off the survivor. Results land in
// BENCH_chaos_recovery.json via cowbird-bench -sweep chaos.

// ChaosRecoveryPoint is one measured throughput configuration.
type ChaosRecoveryPoint struct {
	Mode      string  `json:"mode"` // "replicas1" | "replicas2" | "replicas2_degraded"
	Replicas  int     `json:"replicas"`
	Ops       int     `json:"ops"`
	WallMS    float64 `json:"wall_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// ChaosRecoveryReport is the full sweep.
type ChaosRecoveryReport struct {
	hostEnv
	GeneratedAt string `json:"generated_at"`
	// DetectBudgetMicros is the configured replica-death detection budget:
	// the pool retry timeout doubled per retry, summed over the retries and
	// the first timeout — the floor of any recovery time.
	DetectBudgetMicros float64 `json:"detect_budget_us"`
	// HealthyReadMicros is the median latency of a synchronous read on a
	// healthy two-replica deployment — the baseline the recovery latency is
	// judged against.
	HealthyReadMicros float64 `json:"healthy_read_us"`
	// Recovery is the latency of the first read issued right after the
	// primary pool crashes, per trial (fresh deployment each): detection by
	// retry exhaustion, failover rotation, and the re-executed round.
	RecoveryMicros []float64 `json:"recovery_us"`
	RecoveryP50    float64   `json:"recovery_p50_us"`
	RecoveryMax    float64   `json:"recovery_max_us"`

	Throughput []ChaosRecoveryPoint `json:"throughput"`
}

// The pool QPs' budget: a silent pool fails them after
// 350 µs·(1+2+4) = 2.45 ms, and within one RTO more, 2.8 ms — no later than
// the 2.5–3 ms of (4+1)·500 µs to (4+2)·500 µs before the RTO doubled per
// expiry.
const (
	chaosPoolRTO     = 350 * time.Microsecond
	chaosPoolRetries = 2
)

func chaosConfig(replicas int) system.Config {
	cfg := system.DefaultConfig()
	cfg.RegionSize = 8 << 20
	cfg.PoolReplicas = replicas
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	if replicas > 1 {
		cfg.PoolRetransmitTimeout = chaosPoolRTO
		cfg.PoolMaxRetries = chaosPoolRetries
		cfg.Spot.PoolHeartbeatInterval = time.Millisecond
	}
	return cfg
}

// mixedThroughput is the closed loop the pool-robustness sweeps share: one
// thread, window 16, 50/50 read:write, 256 B ops striding 1 KiB slots.
func mixedThroughput(sys *system.System, ops int, fill byte) (liveSummary, error) {
	th, err := sys.Client.Thread(0)
	if err != nil {
		return liveSummary{}, err
	}
	defer keepTimersFine()()
	wbuf := bytes.Repeat([]byte{fill}, 256)
	l := &driver.Loop{
		Thread: th, Who: "thread 0", Window: 16, Ops: ops, DestBytes: 256,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			off := uint64(i%1024) * 1024
			if i%2 == 0 {
				return th.AsyncWrite(0, wbuf, off)
			}
			return th.AsyncRead(0, off, dest)
		},
	}
	t := timed(l)
	if err := l.Run(nil); err != nil {
		return liveSummary{}, err
	}
	return summarize(t), nil
}

// chaosThroughput measures mixedThroughput on a fresh deployment. When
// degrade is set, the primary pool is crashed (and detection waited out)
// before the measured run, so the point captures the degraded-but-serving
// state off the survivor.
func chaosThroughput(mode string, replicas, ops int, degrade bool) (ChaosRecoveryPoint, error) {
	sys, err := system.New(chaosConfig(replicas))
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	defer sys.Close()
	if degrade {
		sys.Pools[0].Crash()
		deadline := time.Now().Add(5 * time.Second)
		for !sys.Spot.PoolDegraded() {
			if time.Now().After(deadline) {
				return ChaosRecoveryPoint{}, fmt.Errorf("bench: crash not detected")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	sum, err := mixedThroughput(sys, ops, 0xAB)
	if err != nil {
		return ChaosRecoveryPoint{}, err
	}
	return ChaosRecoveryPoint{
		Mode: mode, Replicas: replicas, Ops: ops,
		WallMS:    float64(sum.wall.Microseconds()) / 1e3,
		OpsPerSec: sum.opsPerSec,
	}, nil
}

// chaosRecoveryTrial measures one crash: healthy read latency, then the
// latency of the first read after the primary dies.
func chaosRecoveryTrial() (healthy, recovery time.Duration, err error) {
	sys, err := system.New(chaosConfig(2))
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	th, err := sys.Client.Thread(0)
	if err != nil {
		return 0, 0, err
	}
	data := bytes.Repeat([]byte{0x5A}, 256)
	if err := th.WriteSync(0, data, 4096, 10*time.Second); err != nil {
		return 0, 0, err
	}
	dest := make([]byte, 256)
	// Warm the path, then take the healthy baseline.
	if err := th.ReadSync(0, 4096, dest, 10*time.Second); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := th.ReadSync(0, 4096, dest, 10*time.Second); err != nil {
		return 0, 0, err
	}
	healthy = time.Since(t0)

	sys.Pools[0].Crash()
	t1 := time.Now()
	if err := th.ReadSync(0, 4096, dest, 30*time.Second); err != nil {
		return 0, 0, fmt.Errorf("bench: post-crash read: %w", err)
	}
	recovery = time.Since(t1)
	if !bytes.Equal(dest, data) {
		return 0, 0, fmt.Errorf("bench: post-crash read returned wrong data")
	}
	return healthy, recovery, nil
}

// runChaosRecoveryReport runs the full sweep: recovery-latency trials plus
// the three throughput points.
func runChaosRecoveryReport(opsPerThread, _ int) (ChaosRecoveryReport, error) {
	const trials = 5
	r := ChaosRecoveryReport{
		hostEnv:            currentEnv(),
		GeneratedAt:        time.Now().UTC().Format(time.RFC3339),
		DetectBudgetMicros: float64((chaosPoolRTO * (1<<(chaosPoolRetries+1) - 1)).Microseconds()),
	}
	var healthies []float64
	for i := 0; i < trials; i++ {
		h, rec, err := chaosRecoveryTrial()
		if err != nil {
			return r, err
		}
		healthies = append(healthies, float64(h.Nanoseconds())/1e3)
		r.RecoveryMicros = append(r.RecoveryMicros, float64(rec.Nanoseconds())/1e3)
	}
	r.HealthyReadMicros, _ = medianMax(healthies)
	r.RecoveryP50, r.RecoveryMax = medianMax(r.RecoveryMicros)

	for _, pt := range []struct {
		mode     string
		replicas int
		degrade  bool
	}{
		{"replicas1", 1, false},
		{"replicas2", 2, false},
		{"replicas2_degraded", 2, true},
	} {
		p, err := chaosThroughput(pt.mode, pt.replicas, opsPerThread, pt.degrade)
		if err != nil {
			return r, err
		}
		r.Throughput = append(r.Throughput, p)
	}
	return r, nil
}

// Check is the pool fault-tolerance gate: a primary crash must stall the
// data path for a bounded time (every post-crash read returned the right
// bytes or the trial already failed), and every configuration — the
// degraded one included — must keep serving.
func (r ChaosRecoveryReport) Check() error {
	if len(r.RecoveryMicros) == 0 || r.RecoveryMax >= 1e6 {
		return fmt.Errorf("chaos recovery: worst post-crash read %.0f us over %d trials, want < 1 s",
			r.RecoveryMax, len(r.RecoveryMicros))
	}
	if len(r.Throughput) != 3 {
		return fmt.Errorf("chaos recovery: %d throughput points, want 3", len(r.Throughput))
	}
	for _, p := range r.Throughput {
		if p.OpsPerSec <= 0 {
			return fmt.Errorf("chaos recovery: %s served nothing", p.Mode)
		}
	}
	return nil
}
