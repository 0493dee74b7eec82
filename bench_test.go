package cowbird_test

// The benchmarks in this file regenerate every table and figure of the
// paper's evaluation (§8), one benchmark per exhibit, printing the same
// rows/series the paper reports and exporting headline numbers as benchmark
// metrics. Run all of them with:
//
//	go test -bench=. -benchmem
//
// or a single exhibit with e.g. -bench=BenchmarkFig8HashTableThroughput.
// The equivalent CLI is cmd/cowbird-bench.

import (
	"testing"

	"cowbird/internal/bench"
)

// runExperiment executes one exhibit per benchmark iteration and prints it
// once.
func runExperiment(b *testing.B, id string) bench.Experiment {
	b.Helper()
	var e bench.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = bench.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", e.Render())
	return e
}

// BenchmarkFig1HashProbeNormalized — Figure 1: hash-probe throughput of
// 256-byte records normalized to local memory.
func BenchmarkFig1HashProbeNormalized(b *testing.B) {
	e := runExperiment(b, "fig1")
	if s, ok := e.Get("Cowbird-Spot"); ok {
		b.ReportMetric(s.At(4), "cowbird/local@4threads")
	}
}

// BenchmarkFig2CPUBreakdown — Figure 2: CPU time of one read, Cowbird vs
// async one-sided RDMA, by verb segment.
func BenchmarkFig2CPUBreakdown(b *testing.B) {
	runExperiment(b, "fig2")
}

// BenchmarkTable1SpotPricing — Table 1: on-demand vs spot VM pricing.
func BenchmarkTable1SpotPricing(b *testing.B) {
	runExperiment(b, "table1")
}

// BenchmarkFig8HashTableThroughput — Figure 8a–d: hash-table throughput by
// record size and thread count for all six systems.
func BenchmarkFig8HashTableThroughput(b *testing.B) {
	for _, sub := range []string{"fig8a", "fig8b", "fig8c", "fig8d"} {
		sub := sub
		b.Run(sub, func(b *testing.B) {
			e := runExperiment(b, sub)
			if s, ok := e.Get("Cowbird-Spot"); ok {
				b.ReportMetric(s.Last(), "cowbird-MOPS@16")
			}
			if s, ok := e.Get("Local memory"); ok {
				b.ReportMetric(s.Last(), "local-MOPS@16")
			}
		})
	}
}

// BenchmarkFig9FasterYCSB — Figure 9a/b: FASTER on YCSB (Zipfian 0.99) with
// each storage backend.
func BenchmarkFig9FasterYCSB(b *testing.B) {
	for _, sub := range []string{"fig9a", "fig9b"} {
		sub := sub
		b.Run(sub, func(b *testing.B) {
			e := runExperiment(b, sub)
			cow, _ := e.Get("Cowbird-Spot")
			ssd, _ := e.Get("SSD")
			if ssd.Last() > 0 {
				b.ReportMetric(cow.Last()/ssd.Last(), "cowbird/ssd@16")
			}
		})
	}
}

// BenchmarkFig10CommunicationRatio — Figure 10a/b: fraction of time in the
// communication library.
func BenchmarkFig10CommunicationRatio(b *testing.B) {
	for _, sub := range []string{"fig10a", "fig10b"} {
		sub := sub
		b.Run(sub, func(b *testing.B) {
			e := runExperiment(b, sub)
			if s, ok := e.Get("Cowbird-Spot"); ok {
				b.ReportMetric(s.Last(), "cowbird-comm-ratio@16")
			}
		})
	}
}

// BenchmarkFig11CowbirdVsRedy — Figure 11: FASTER with Cowbird-Spot vs Redy
// (Redy runs out of cores at 16 threads).
func BenchmarkFig11CowbirdVsRedy(b *testing.B) {
	e := runExperiment(b, "fig11")
	cow, _ := e.Get("Cowbird-Spot")
	redy, _ := e.Get("Redy")
	if redy.Last() > 0 {
		b.ReportMetric(cow.Last()/redy.Last(), "cowbird/redy@16")
	}
}

// BenchmarkFig12CowbirdVsAIFM — Figure 12: uniform 8-byte remote reads.
func BenchmarkFig12CowbirdVsAIFM(b *testing.B) {
	e := runExperiment(b, "fig12")
	cow, _ := e.Get("Cowbird-Spot")
	aifm, _ := e.Get("AIFM")
	if aifm.Last() > 0 {
		b.ReportMetric(cow.Last()/aifm.Last(), "cowbird/aifm@16")
	}
}

// BenchmarkFig13Latency — Figure 13: read latency (median and p99) by
// record size for sync/async RDMA and Cowbird ± batching.
func BenchmarkFig13Latency(b *testing.B) {
	e := runExperiment(b, "fig13")
	if s, ok := e.Get("Cowbird (batching) p99"); ok {
		b.ReportMetric(s.At(512), "cowbird-batch-p99us@512B")
	}
}

// BenchmarkFig14TCPContention — Figure 14: contending TCP bandwidth with
// Cowbird-P4, Cowbird-Spot, and no Cowbird.
func BenchmarkFig14TCPContention(b *testing.B) {
	e := runExperiment(b, "fig14")
	p4s, _ := e.Get("Cowbird-P4")
	base, _ := e.Get("w/o Cowbird")
	if base.Last() > 0 {
		b.ReportMetric(100*(1-p4s.Last()/base.Last()), "p4-tcp-drop-%@8threads")
	}
}

// BenchmarkTable5P4Resources — Table 5: switch data-plane resource usage,
// computed from the declared RMT pipeline model.
func BenchmarkTable5P4Resources(b *testing.B) {
	runExperiment(b, "table5")
}

// --- Ablations (DESIGN.md §5): design choices quantified --------------------

// BenchmarkAblationProbeRate — §5.2: probe pacing trades discovery latency
// against probe bandwidth.
func BenchmarkAblationProbeRate(b *testing.B) {
	runExperiment(b, "ablation-probe")
}

// BenchmarkAblationBatchSize — §6: response batch size trades throughput
// against completion latency.
func BenchmarkAblationBatchSize(b *testing.B) {
	e := runExperiment(b, "ablation-batch")
	if s, ok := e.Get("throughput @16 threads (MOPS)"); ok && len(s.Y) > 0 {
		b.ReportMetric(s.Last()/s.Y[0], "batch64/batch1-speedup")
	}
}

// BenchmarkAblationPauseRule — §5.3 vs §6: the switch's pause-all-reads
// rule vs the agent's range-overlap check under write-heavy mixes.
func BenchmarkAblationPauseRule(b *testing.B) {
	runExperiment(b, "ablation-pause")
}

// BenchmarkAblationGoBackN — §5.3: functional drain/resync recovery cost
// under increasing frame loss (wall-clock, real Cowbird-P4 engine).
func BenchmarkAblationGoBackN(b *testing.B) {
	runExperiment(b, "ablation-gbn")
}
