package bench

import (
	"strings"
	"testing"
)

func init() {
	// Keep test runs light; the real harness uses the full size.
	OpsPerThread = 800
}

func TestIDsCoverEveryExhibit(t *testing.T) {
	want := []string{
		"fig1", "fig2", "table1",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig10a", "fig10b",
		"fig11", "fig12", "fig13", "fig14", "table5",
		"ablation-probe", "ablation-batch", "ablation-pause",
		"cache-sweep", "engine-scale", "multitenant-scale",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	have := make(map[string]bool, len(got))
	for _, id := range got {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig1Normalization(t *testing.T) {
	e := Fig1()
	local, ok := e.Get("Local memory")
	if !ok {
		t.Fatal("no local memory series")
	}
	for _, y := range local.Y {
		if y != 1 {
			t.Fatalf("local memory not normalized to 1: %v", local.Y)
		}
	}
	cow, _ := e.Get("Cowbird-Spot")
	sync, _ := e.Get("One-sided RDMA (sync)")
	for i := range cow.Y {
		if cow.Y[i] < 0.8 || cow.Y[i] > 1.0 {
			t.Errorf("Cowbird normalized %.2f at x=%v; want close to local", cow.Y[i], cow.X[i])
		}
		if sync.Y[i] > 0.2 {
			t.Errorf("sync RDMA normalized %.2f; want far below local", sync.Y[i])
		}
	}
}

func TestFig2RatioNote(t *testing.T) {
	e := Fig2()
	if len(e.Rows) != 2 {
		t.Fatalf("rows = %d", len(e.Rows))
	}
	if len(e.Notes) == 0 || !strings.Contains(e.Notes[0], "x") {
		t.Fatal("missing ratio note")
	}
}

func TestTable1Savings(t *testing.T) {
	e := Table1()
	if len(e.Rows) != 3 {
		t.Fatalf("rows = %d", len(e.Rows))
	}
	// Azure's spot discount is the largest (90%).
	if e.Rows[2].Values[2] != "90%" {
		t.Fatalf("Azure savings = %s", e.Rows[2].Values[2])
	}
}

func TestFig8SeriesComplete(t *testing.T) {
	e := Fig8('b')
	if len(e.Series) != 6 {
		t.Fatalf("series = %d, want 6 systems", len(e.Series))
	}
	for _, s := range e.Series {
		if len(s.X) != 5 || len(s.Y) != 5 {
			t.Fatalf("series %q has %d points", s.Label, len(s.Y))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %q point %d nonpositive", s.Label, i)
			}
		}
	}
	// Bandwidth-bound subfigures carry the dashed-line note.
	if n := Fig8('d').Notes; len(n) == 0 || !strings.Contains(n[0], "bound") {
		t.Fatal("fig8d missing bandwidth-bound note")
	}
}

func TestFig11RedyDegrades(t *testing.T) {
	e := Fig11()
	redy, _ := e.Get("Redy")
	if redy.At(16) >= redy.At(8) {
		t.Fatalf("Redy did not degrade: %v", redy.Y)
	}
}

func TestFig13HasP50AndP99(t *testing.T) {
	e := Fig13()
	if len(e.Series) != 8 {
		t.Fatalf("series = %d, want 4 variants x {p50,p99}", len(e.Series))
	}
	cb50, ok1 := e.Get("Cowbird (batching) p50")
	as50, ok2 := e.Get("One-sided RDMA (async) p50")
	if !ok1 || !ok2 {
		t.Fatal("missing latency series")
	}
	for i := range cb50.Y {
		if cb50.Y[i] >= as50.Y[i] {
			t.Fatalf("batched Cowbird p50 %.1f >= async %.1f at size %v", cb50.Y[i], as50.Y[i], cb50.X[i])
		}
	}
}

func TestFig14Ordering(t *testing.T) {
	e := Fig14()
	base, _ := e.Get("w/o Cowbird")
	spot, _ := e.Get("Cowbird-Spot")
	p4s, _ := e.Get("Cowbird-P4")
	for i := range base.Y {
		if !(base.Y[i] >= spot.Y[i] && spot.Y[i] > p4s.Y[i]) {
			t.Fatalf("ordering violated at %v: %v / %v / %v", base.X[i], base.Y[i], spot.Y[i], p4s.Y[i])
		}
	}
	// P4's worst-case drop approaches the paper's 30%.
	drop := 1 - p4s.Last()/base.Last()
	if drop < 0.15 || drop > 0.40 {
		t.Fatalf("P4 TCP drop %.0f%%, want ~25-30%%", 100*drop)
	}
	// Spot's impact stays visibly smaller.
	if spotDrop := 1 - spot.Last()/base.Last(); spotDrop > drop/1.5 {
		t.Fatalf("Spot drop %.2f not well below P4 drop %.2f", spotDrop, drop)
	}
}

func TestTable5MatchesPaperScale(t *testing.T) {
	e := Table5()
	if len(e.Rows) != 1 {
		t.Fatal("table5 rows")
	}
	v := e.Rows[0].Values
	if v[0] != "1085 b" {
		t.Errorf("PHV = %s, want 1085 b", v[0])
	}
	// Paper: 12 stages, 38 VLIW, 11 sALU; the VLIW and sALU deviations are
	// stated in EXPERIMENTS.md's Table 5 section.
	if v[3] != "12" || v[4] != "39" || v[5] != "14" {
		t.Errorf("stages/VLIW/sALU = %v", v[3:])
	}
}

func TestRenderFormats(t *testing.T) {
	table := Table5().Render()
	if !strings.Contains(table, "Cowbird-P4") || !strings.Contains(table, "PHV") {
		t.Fatal("table render missing content")
	}
	fig := Fig2().Render()
	if !strings.Contains(fig, "fig2") {
		t.Fatal("figure render missing header")
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "x", X: []float64{1, 2}, Y: []float64{10, 20}}
	if s.Last() != 20 || s.At(1) != 10 || s.At(3) != 0 {
		t.Fatal("series helpers")
	}
	if (Series{}).Last() != 0 {
		t.Fatal("empty series Last")
	}
	var e Experiment
	if _, ok := e.Get("nope"); ok {
		t.Fatal("Get on empty experiment")
	}
}
