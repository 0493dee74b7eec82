package bench

import "testing"

// TestFabricScalePoint runs one small point of the raw-datapath sweep and
// sanity-checks the measurements. The full sweep is the fabric-scale
// exhibit / BENCH_fabric_datapath.json; this test only guards the harness
// against rot.
func TestFabricScalePoint(t *testing.T) {
	pt, err := runFabricScale(fabricScaleParams{
		threads: 2, opsPerThread: 80,
		window: 8, opBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Ops != 160 || pt.OpsPerSec <= 0 || pt.FramesPerSec <= 0 {
		t.Fatalf("bad point %+v", pt)
	}
	if pt.P50Micros <= 0 || pt.P99Micros < pt.P50Micros {
		t.Fatalf("bad latencies %+v", pt)
	}
}

// BenchmarkFabricDatapathScaling is the CI smoke entry point (-benchtime=1x):
// one 4-thread sweep point per iteration, reporting its allocation rate.
func BenchmarkFabricDatapathScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt, err := runFabricScale(fabricScaleParams{
			threads: 4, opsPerThread: 300,
			window: fabricScaleWindow, opBytes: fabricScaleOpBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pt.OpsPerSec, "ops/s")
		b.ReportMetric(pt.AllocsPerOp, "datapathallocs/op")
	}
}
