package main

import (
	"math"
	"sort"
	"testing"
)

func TestHistQuantileMatchesExact(t *testing.T) {
	rng := newPRNG(7, 0)
	var h latHist
	var exact []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 100 ns .. 10 ms, the range latencies span.
		v := int64(100 * math.Pow(1e5, float64(rng.below(1<<20))/float64(1<<20)))
		h.record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)-1))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f: histogram %.1f, exact %.1f", q, got, want)
		}
	}
	if got := h.beyond(0.99); got != 2000 {
		t.Errorf("beyond(0.99) = %d, want 2000", got)
	}
}

func TestHistBucketsTile(t *testing.T) {
	// Every bucket's range must start where the previous one ended, and a
	// value must index the bucket whose range holds it.
	end := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, width := histBounds(i)
		if lo != end {
			t.Fatalf("bucket %d starts at %v, previous ended at %v", i, lo, end)
		}
		end = lo + width
		if got := histIndex(int64(lo)); got != i {
			t.Fatalf("histIndex(%v) = %d, want %d", lo, got, i)
		}
		if got := histIndex(int64(end) - 1); got != i {
			t.Fatalf("histIndex(%v) = %d, want %d", end-1, got, i)
		}
	}
	if end != 1<<histMaxBits {
		t.Fatalf("buckets end at %v, want 2^%d", end, histMaxBits)
	}
	var h latHist
	h.record(1 << 40) // clamped, not out of range
	h.record(-5)
	if h.n != 2 || math.IsNaN(h.quantile(1)) {
		t.Fatalf("clamping lost samples: n=%d", h.n)
	}
}

// twoState builds a per-interval series that sits at `quiet` for the given
// share of intervals and is slowed by 35 % otherwise, in runs of a few
// intervals, with 1 % jitter — the shape host interference has here.
func twoState(n int, quietShareOf float64, quiet float64, higherBetter bool) []float64 {
	rng := newPRNG(42, 1)
	out := make([]float64, n)
	slowed := int(float64(n)*(1-quietShareOf) + 0.5)
	for i := range out {
		level := quiet
		if i%n < slowed { // one contiguous disturbed stretch
			if higherBetter {
				level = quiet * 0.65
			} else {
				level = quiet / 0.65
			}
		}
		out[i] = level * (1 + 0.01*(float64(rng.below(2001))/1000-1))
	}
	return out
}

func TestQuietQuartileSurvivesInterference(t *testing.T) {
	// A run that is 60 % slowed must still report the quiet level within 3 %.
	const quietOps, quietLat = 120000.0, 128.0
	ops := twoState(30, 0.4, quietOps, true)
	if got := quietHigh(ops); math.Abs(got-quietOps)/quietOps > 0.03 {
		t.Errorf("quietHigh = %.0f, want %.0f within 3%%", got, quietOps)
	}
	lat := twoState(30, 0.4, quietLat, false)
	if got := quietLow(lat); math.Abs(got-quietLat)/quietLat > 0.03 {
		t.Errorf("quietLow = %.1f, want %.1f within 3%%", got, quietLat)
	}
	// The whole-run median of the same series is off by a third: that is the
	// estimator the quiet quartile replaces.
	if med := median(ops); math.Abs(med-quietOps)/quietOps < 0.2 {
		t.Errorf("median %.0f unexpectedly close to the quiet level; the test series is not two-state", med)
	}
	// An undisturbed run reports the same level.
	if got := quietHigh(twoState(30, 1, quietOps, true)); math.Abs(got-quietOps)/quietOps > 0.03 {
		t.Errorf("undisturbed quietHigh = %.0f", got)
	}
	if got := quietShare(ops); math.Abs(got-0.4) > 0.05 {
		t.Errorf("quietShare = %.2f, want 0.40", got)
	}
}

func TestQuantileOfIgnoresNaN(t *testing.T) {
	if got := quantileOf([]float64{math.NaN(), 1, 3, math.NaN()}, 0.5); got != 2 {
		t.Errorf("quantileOf = %v, want 2", got)
	}
	if got := quantileOf(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantileOf(nil) = %v, want NaN", got)
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("pyQuartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = pyQuartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("pyQuartiles = %v %v %v", q1, q2, q3)
	}
}
