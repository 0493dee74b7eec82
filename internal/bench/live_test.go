package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"cowbird/internal/driver"
)

// TestSummarizeLoops: the summary pools every loop's measured latencies and
// spans the last loop to warm up to the last to finish.
func TestSummarizeLoops(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	a := &timing{loop: &driver.Loop{WarmAt: t0, End: t0.Add(ms(500))}, lats: []time.Duration{ms(3), ms(1)}}
	b := &timing{loop: &driver.Loop{WarmAt: t0.Add(ms(100)), End: t0.Add(ms(400))}, lats: []time.Duration{ms(2), ms(4)}}
	sum := summarize(a, b)
	if sum.ops != 4 || sum.wall != ms(400) || sum.opsPerSec != 10 || sum.p50 != 2000 || sum.p99 != 3000 {
		t.Errorf("summary %+v", sum)
	}
}

// TestCommittedReportsDecode strict-decodes every committed BENCH_*.json
// into the struct its sweep writes, so a renamed or dropped key fails here
// and not in whoever reads the reports next.
func TestCommittedReportsDecode(t *testing.T) {
	for file, into := range map[string]any{
		"BENCH_engine_scaling.json":    &EngineScalingReport{},
		"BENCH_multitenant_scale.json": &MultiTenantReport{},
		"BENCH_client_cache.json":      &ClientCacheReport{},
		"BENCH_chaos_recovery.json":    &ChaosRecoveryReport{},
		"BENCH_split_brain.json":       &SplitBrainReport{},
	} {
		buf, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(buf))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
}

func TestReportGates(t *testing.T) {
	scaling := func(edit func(*EngineScalingReport)) report {
		r := EngineScalingReport{Points: []EngineScalePoint{
			{Registered: 4, P99Micros: 600}, {Registered: 16, P99Micros: 900}, {Registered: 64, P99Micros: 700},
		}}
		edit(&r)
		return r
	}
	tenants := func(edit func(*MultiTenantReport)) report {
		r := MultiTenantReport{
			Points: []MultiTenantPoint{{Tenants: 64, P99Micros: 1000}, {Tenants: 256, P99Micros: 1700}},
			NoisyNeighbor: NoisyNeighborResult{
				VictimOps: 4000, AggressorRatePerSec: 2000, BaselineP99Micros: 90, ContendedP99Micros: 110,
				P99Ratio: 1.2, AggressorAchievedOps: 2400,
			},
		}
		edit(&r)
		return r
	}
	cache := func(edit func(*ClientCacheReport)) report {
		r := ClientCacheReport{SpeedupAtZipf99: 6.9, HitRateAtZipf99: 0.9}
		edit(&r)
		return r
	}
	chaos := func(edit func(*ChaosRecoveryReport)) report {
		r := ChaosRecoveryReport{
			RecoveryMicros: []float64{6500, 7600}, RecoveryMax: 7600,
			Throughput: []ChaosRecoveryPoint{
				{Mode: "replicas1", OpsPerSec: 278e3}, {Mode: "replicas2", OpsPerSec: 231e3},
				{Mode: "replicas2_degraded", OpsPerSec: 271e3},
			},
		}
		edit(&r)
		return r
	}
	fence := func(edit func(*SplitBrainReport)) report {
		r := SplitBrainReport{
			OverheadPct: -0.97, BudgetPct: 2, WithinBudget: true,
			ZombieDetectMicros: []float64{2580, 2620}, ZombieDetectMax: 2620,
			CorruptChunks: 16, RepairedChunks: 16, ScrubDetectedExact: true,
		}
		edit(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		r    report
		want string // substring of the gate's error; empty: passes
	}{
		{"scaling ok", scaling(func(*EngineScalingReport) {}), ""},
		{"scaling p99 doubles", scaling(func(r *EngineScalingReport) { r.Points[2].P99Micros = 1900 }), "p99 grew 2.11x"},
		{"scaling allocates", scaling(func(r *EngineScalingReport) { r.Points[1].AllocsPerOp = 0.002 }), "16 queue sets: 0.002 allocs/op"},
		{"tenants ok", tenants(func(*MultiTenantReport) {}), ""},
		{"tenants p99 doubles", tenants(func(r *MultiTenantReport) { r.Points[1].P99Micros = 2100 }), "p99 grew 2.10x"},
		{"tenants foreign byte", tenants(func(r *MultiTenantReport) { r.Points[1].IsolationViolations = 1 }), "1 isolation violations"},
		{"tenants victim moved", tenants(func(r *MultiTenantReport) { r.NoisyNeighbor.P99Ratio = 2.3 }), "victim p99 2.30x"},
		{"tenants cap escaped", tenants(func(r *MultiTenantReport) { r.NoisyNeighbor.AggressorAchievedOps = 3100 }), "aggressor achieved 3100"},
		{"cache ok", cache(func(*ClientCacheReport) {}), ""},
		{"cache no faster", cache(func(r *ClientCacheReport) { r.SpeedupAtZipf99 = 0.98 }), "0.98x ops/s"},
		{"cache misses", cache(func(r *ClientCacheReport) { r.HitRateAtZipf99 = 0.4 }), "hit rate 0.40"},
		{"chaos ok", chaos(func(*ChaosRecoveryReport) {}), ""},
		{"chaos unbounded stall", chaos(func(r *ChaosRecoveryReport) { r.RecoveryMax = 1.2e6 }), "worst post-crash read 1200000 us"},
		{"chaos degraded dead", chaos(func(r *ChaosRecoveryReport) { r.Throughput[2].OpsPerSec = 0 }), "replicas2_degraded served nothing"},
		{"chaos point missing", chaos(func(r *ChaosRecoveryReport) { r.Throughput = r.Throughput[:2] }), "2 throughput points"},
		{"fence ok", fence(func(*SplitBrainReport) {}), ""},
		{"fence over budget unresolved", fence(func(r *SplitBrainReport) { r.OverheadPct, r.WithinBudget = 3.4, false }), ""},
		{"fence over budget resolved", fence(func(r *SplitBrainReport) { r.OverheadPct, r.WithinBudget, r.Resolved = 3.4, false, true }), "3.40% exceeds the 2% budget"},
		{"fence resolved within budget", fence(func(r *SplitBrainReport) { r.OverheadPct, r.Resolved = 1.1, true }), ""},
		{"fence zombie lingers", fence(func(r *SplitBrainReport) { r.ZombieDetectMax = 1.5e6 }), "worst zombie demotion 1500000 us"},
		{"fence scrub inexact", fence(func(r *SplitBrainReport) { r.RepairedChunks, r.ScrubDetectedExact = 15, false }), "repaired 15 chunks, 16 were corrupted"},
	} {
		err := tc.r.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRunSweepRejectsBeforeRunning: an unknown name lists the valid ones and
// an unwritable report path fails before any sweep has run (the directory
// does not exist, so nothing is left behind either).
func TestRunSweepRejectsBeforeRunning(t *testing.T) {
	err := RunSweep("spot", t.TempDir()+"/out.json", 10, 0)
	if err == nil || !strings.Contains(err.Error(), "[cache chaos fence scaling tenants]") {
		t.Errorf("unknown sweep: %v", err)
	}
	err = RunSweep("chaos", t.TempDir()+"/no-such-dir/out.json", 10, 0)
	if err == nil || !strings.Contains(err.Error(), "not writable") {
		t.Errorf("unwritable path: %v", err)
	}
}
