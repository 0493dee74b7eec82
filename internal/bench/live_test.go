package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"cowbird/internal/core"
	"cowbird/internal/system"
	"cowbird/internal/telemetry"
)

// TestClosedLoopDrivesEveryOp runs the shared driver at 2 threads x window 8
// against a default deployment with an every-request telemetry hub: the hub
// must harvest exactly the ops the loops were asked for (warm-up included),
// each loop must record one latency per measured op, and the loops must
// never hold more than their window in flight.
func TestClosedLoopDrivesEveryOp(t *testing.T) {
	const threads, window, warmup, ops = 2, 8, 24, 60
	hub := telemetry.New(telemetry.Config{SampleEvery: 1})
	cfg := system.DefaultConfig()
	cfg.Threads = threads
	cfg.Telemetry = hub
	sys, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	harvested := func() int64 { return hub.ReadsHarvested.Value() + hub.WritesHarvested.Value() }
	var issued, overshoot atomic.Int64
	loops := make([]*closedLoop, threads)
	for ti := range loops {
		th, err := sys.Client.Thread(ti)
		if err != nil {
			t.Fatal(err)
		}
		wbuf := bytes.Repeat([]byte{byte(0xC0 + ti)}, 64)
		loops[ti] = &closedLoop{
			th: th, who: "test thread", window: window, warmup: warmup, ops: ops, destBytes: 64,
			issue: func(i int, dest []byte) (core.ReqID, error) {
				// issued is read before harvested, and harvested only grows,
				// so this never overstates what the loops hold in flight.
				if n := issued.Load() + 1 - harvested(); n > threads*window {
					overshoot.Store(n)
				}
				off := uint64(ti)<<16 + uint64(i%64)*64
				var id core.ReqID
				var err error
				if i%4 == 3 {
					id, err = th.AsyncWrite(0, wbuf, off)
				} else {
					id, err = th.AsyncRead(0, off, dest)
				}
				if err == nil {
					issued.Add(1)
				}
				return id, err
			},
		}
	}
	warm := false
	if err := driveThreads(loops, func() { warm = true }); err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("whenWarm never ran")
	}
	if got, want := harvested(), int64(threads*(warmup+ops)); got != want {
		t.Errorf("hub harvested %d ops, want %d", got, want)
	}
	for ti, l := range loops {
		if len(l.lats) != ops {
			t.Errorf("thread %d recorded %d latencies, want %d", ti, len(l.lats), ops)
		}
		if l.warmAt.IsZero() || !l.end.After(l.warmAt) {
			t.Errorf("thread %d: warm %v, end %v", ti, l.warmAt, l.end)
		}
	}
	if n := overshoot.Load(); n != 0 {
		t.Errorf("%d ops in flight, windows allow %d", n, threads*window)
	}
	if hub.StageExecute.Count() == 0 || hub.EndToEndReads.Count() == 0 {
		t.Error("no stage samples despite SampleEvery=1")
	}
	if sum := summarize(loops...); sum.ops != threads*ops || sum.wall <= 0 || sum.p50 <= 0 || sum.p99 < sum.p50 {
		t.Errorf("summary %+v", sum)
	}

	// A loop value runs again over its buffers (the noisy-neighbor aggressor
	// laps one): same op count, fresh results.
	again := loops[0]
	again.warmup = 0
	if err := again.run(nil); err != nil {
		t.Fatal(err)
	}
	if len(again.lats) != ops {
		t.Errorf("second run recorded %d latencies, want %d", len(again.lats), ops)
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
