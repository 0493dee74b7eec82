package main

import (
	"math"
	"math/bits"
	"sort"
)

// latHist is a fixed-size log-linear latency histogram: exact below 256 ns,
// then 128 sub-buckets per octave (bucket width < 0.8 % of its value). One
// histogram per 500 ms interval keeps the harness's memory independent of
// how many operations a run completes, which a sample-per-op slice would not
// (max_rss_mb would then move with ops_per_s).
type latHist struct {
	n      int64
	counts [histBuckets]uint32
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per octave
	histExact   = 2 * histSub      // values below this have their own bucket
	histMaxBits = 36               // values are clamped below 2^36 ns (~69 s)
	histBuckets = histExact + (histMaxBits-histSubBits-1)*histSub
)

func histIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	if ns >= 1<<histMaxBits {
		ns = 1<<histMaxBits - 1
	}
	v := uint64(ns)
	if v < histExact {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return histExact + (shift-1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns the half-open value range [lo, lo+width) of a bucket.
func histBounds(i int) (lo, width float64) {
	if i < histExact {
		return float64(i), 1
	}
	i -= histExact
	shift := uint(i/histSub + 1)
	top := uint64(i%histSub + histSub)
	return float64(top << shift), float64(uint64(1) << shift)
}

func (h *latHist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile estimates the q-th quantile (0..1) in nanoseconds, interpolating
// linearly inside the bucket that holds it. Zero samples give NaN.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < before+float64(c) {
			lo, width := histBounds(i)
			return lo + width*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// beyond reports how many samples lie above the q-th quantile's rank: the
// guide asks for at least ten before a tail percentile is quoted.
func (h *latHist) beyond(q float64) int64 {
	return h.n - 1 - int64(q*float64(h.n-1))
}

// quantileOf is the linear-interpolated quantile of a small sample (the
// per-interval series). It does not modify vals. Empty input gives NaN.
func quantileOf(vals []float64, q float64) float64 {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// quietQuantile is how far into the quiet end of the per-interval series a
// timing metric looks. Interference on the shared host only ever slows an
// interval, and it comes in stretches of seconds to tens of seconds at several
// depths, so the undisturbed level of a higher-is-better series is near its
// top and that of a lower-is-better series near its bottom. The twentieth
// (between the second and third best of forty intervals) was the steadiest
// choice on the build host: the quartile let runs that were mostly disturbed
// report the disturbed level, the single best interval is one sample.
const quietQuantile = 0.05

func quietHigh(series []float64) float64 { return quantileOf(series, 1-quietQuantile) }
func quietLow(series []float64) float64  { return quantileOf(series, quietQuantile) }

// quietShare is the fraction of intervals whose throughput is within 10 % of
// the quiet level: how much of the run the host left undisturbed.
func quietShare(opsPerS []float64) float64 {
	level := quietHigh(opsPerS)
	if math.IsNaN(level) || len(opsPerS) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range opsPerS {
		if v >= 0.9*level {
			n++
		}
	}
	return float64(n) / float64(len(opsPerS))
}

func median(vals []float64) float64 { return quantileOf(vals, 0.5) }
