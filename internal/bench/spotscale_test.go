package bench

import "testing"

// TestSpotScalePoint runs one small point of the real-engine sweep in each
// mode and sanity-checks the measurements. The full Workers=1 vs
// worker-per-queue comparison is the spot-scale exhibit /
// BENCH_spot_datapath.json; this test only guards the harness against rot.
func TestSpotScalePoint(t *testing.T) {
	for workers, wantMode := range map[int]string{1: "workers=1", 0: "workers=queues"} {
		pt, err := runSpotScale(spotScaleParams{
			threads: 2, workers: workers, batch: 8, opsPerThread: 60,
			window: 8, latency: spotScaleLatency,
		})
		if err != nil {
			t.Fatalf("%s: %v", wantMode, err)
		}
		if pt.Ops != 120 || pt.OpsPerSec <= 0 {
			t.Fatalf("%s: bad point %+v", wantMode, pt)
		}
		if pt.P50Micros <= 0 || pt.P99Micros < pt.P50Micros {
			t.Fatalf("%s: bad latencies %+v", wantMode, pt)
		}
		if pt.Mode != wantMode {
			t.Fatalf("mode = %q, want %q", pt.Mode, wantMode)
		}
	}
}

// BenchmarkSpotDatapathScaling is the CI smoke entry point (-benchtime=1x):
// it exercises one pair of sweep points per iteration and reports the
// worker-per-queue over Workers=1 throughput ratio at 4 threads as a metric.
func BenchmarkSpotDatapathScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p1, err := runSpotScale(spotScaleParams{
			threads: 4, workers: 1, batch: 32, opsPerThread: 100,
			window: spotScaleWindow, latency: spotScaleLatency,
		})
		if err != nil {
			b.Fatal(err)
		}
		pq, err := runSpotScale(spotScaleParams{
			threads: 4, workers: 0, batch: 32, opsPerThread: 100,
			window: spotScaleWindow, latency: spotScaleLatency,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pq.OpsPerSec/p1.OpsPerSec, "perqueue/oneworker@4threads")
	}
}
