package bench

import (
	"fmt"
	"time"

	"cowbird/internal/cache"
	"cowbird/internal/core"
	"cowbird/internal/system"
	"cowbird/internal/ycsb"
)

// The client-cache sweep measures the hot-data tier (internal/cache) end to
// end on the real Spot deployment: N client threads drive a synchronous
// closed loop of YCSB-B ops (95% reads, 5% updates) over a fixed-latency
// fabric, with the key skew swept from uniform to Zipfian θ=0.99 and the
// cache toggled per point. Keys are drawn scrambled-Zipfian, so the hot
// records are dispersed across the region instead of packed into a few
// adjacent lines — a plain Zipfian would let spatial locality flatter the
// tier. A sequential-scan pair isolates the stride prefetcher. Results land
// in BENCH_client_cache.json via cowbird-bench -sweep cache.

// CacheSweepPoint is one measured configuration of the sweep.
type CacheSweepPoint struct {
	Workload       string  `json:"workload"` // "uniform" | "zipf-<theta>" | "sequential"
	CacheEnabled   bool    `json:"cache_enabled"`
	Threads        int     `json:"threads"`
	Ops            int     `json:"ops"`
	WallMS         float64 `json:"wall_ms"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	HitRate        float64 `json:"hit_rate"`
	PrefetchIssued int64   `json:"prefetch_issued"`
	PrefetchUseful int64   `json:"prefetch_useful"`
	ResidentBytes  int64   `json:"resident_bytes"`
	P50Micros      float64 `json:"p50_us"`
	P99Micros      float64 `json:"p99_us"`
}

// cacheSweepParams configures one point.
type cacheSweepParams struct {
	dist         ycsb.Distribution
	theta        float64
	sequential   bool // sequential scan instead of drawn keys
	enabled      bool
	threads      int
	opsPerThread int
}

const (
	cacheSweepLatency = 25 * time.Microsecond
	cacheSweepTrials  = 3

	// Warmup draws (total, split across threads) before the measured phase of
	// a cache-enabled skew point, and the window they are pipelined at.
	cacheSweepWarmup       = 48000
	cacheSweepWarmupWindow = 32

	// Dataset: 32 Ki records of 64 B (2 MiB); the tier holds half of it
	// (16 Ki lines of 64 B), so uniform traffic measures honest overhead at
	// ~50% hit rate while θ=0.99 keeps its hot set fully resident.
	cacheSweepRecords   = 32768
	cacheSweepValueSize = 64
	cacheSweepLines     = 16384
	cacheSweepLineSize  = 64
)

// cacheSweepConfig is the tier configuration every enabled point runs:
// line-per-record, half-dataset capacity, stride prefetch four lines deep.
func cacheSweepConfig() cache.Config {
	return cache.Config{
		Enabled:           true,
		LineSize:          cacheSweepLineSize,
		Lines:             cacheSweepLines,
		Shards:            8,
		PrefetchDepth:     4,
		PrefetchBudget:    8,
		PrefetchMinStreak: 2,
	}
}

// workloadName labels a point for the report.
func (p cacheSweepParams) workloadName() string {
	if p.sequential {
		return "sequential"
	}
	if p.dist == ycsb.Uniform {
		return "uniform"
	}
	return fmt.Sprintf("zipf-%.2f", p.theta)
}

// bestCacheSweep keeps the highest-throughput trial of a point.
func bestCacheSweep(p cacheSweepParams) (CacheSweepPoint, error) {
	return bestOf(cacheSweepTrials,
		func(i int) (CacheSweepPoint, error) { return runCacheSweep(p, int64(i)) },
		func(a, b CacheSweepPoint) bool { return a.OpsPerSec > b.OpsPerSec })
}

// runCacheSweep builds a deployment, drives it, and tears it down.
func runCacheSweep(p cacheSweepParams, seed int64) (CacheSweepPoint, error) {
	cfg := system.DefaultConfig()
	cfg.Threads = p.threads
	cfg.RegionSize = 4 << 20
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	if p.enabled {
		cfg.Cache = cacheSweepConfig()
	}
	sys, err := system.New(cfg)
	if err != nil {
		return CacheSweepPoint{}, err
	}
	defer sys.Close()
	sys.Fabric.SetLatency(cacheSweepLatency)
	defer keepTimersFine()()

	w := ycsb.WorkloadB(cacheSweepRecords, cacheSweepValueSize, p.dist)
	w.Theta = p.theta

	// Two loops per thread over one key generator: a pipelined read-only
	// warm-up that fills the tier at a fraction of the synchronous loop's
	// wall clock, then the measured synchronous (window 1) YCSB-B loop.
	warm := make([]*closedLoop, p.threads)
	measured := make([]*closedLoop, p.threads)
	for ti := range measured {
		th, err := sys.Client.Thread(ti)
		if err != nil {
			return CacheSweepPoint{}, err
		}
		g, err := ycsb.NewGenerator(w, seed*64+int64(ti)+1)
		if err != nil {
			return CacheSweepPoint{}, err
		}
		who := fmt.Sprintf("thread %d", ti)
		warm[ti] = &closedLoop{
			th: th, who: who + " warmup", window: cacheSweepWarmupWindow,
			ops: cacheSweepWarmup / p.threads, destBytes: cacheSweepValueSize,
			issue: func(_ int, dest []byte) (core.ReqID, error) {
				return th.AsyncRead(0, uint64(g.NextIndex())*cacheSweepValueSize, dest)
			},
		}
		// Sequential scans start at a per-thread stripe so concurrent
		// streams do not trivially prefetch for each other.
		stripe := ti * (cacheSweepRecords / p.threads)
		wbuf := make([]byte, cacheSweepValueSize)
		measured[ti] = &closedLoop{
			th: th, who: who, window: 1, ops: p.opsPerThread, destBytes: cacheSweepValueSize,
			issue: func(i int, dest []byte) (core.ReqID, error) {
				if p.sequential {
					return th.AsyncRead(0, uint64((stripe+i)%cacheSweepRecords)*cacheSweepValueSize, dest)
				}
				idx := g.NextIndex()
				off := uint64(idx) * cacheSweepValueSize
				if g.NextOp() == ycsb.OpUpdate {
					return th.AsyncWrite(0, g.Value(idx, wbuf), off)
				}
				return th.AsyncRead(0, off, dest)
			},
		}
	}

	// Cache-enabled skew points warm the tier first: the sweep reports
	// steady-state hit rates, not the compulsory-miss transient of a cold
	// tier. Cache-off points have no state to warm, and the sequential pair
	// is the prefetcher's cold-start exhibit by design.
	if p.enabled && !p.sequential {
		if err := driveThreads(warm, nil); err != nil {
			return CacheSweepPoint{}, err
		}
	}
	// Snapshot after warmup so the report's hit rate and prefetch accuracy
	// describe the measured phase only.
	var st0 cache.Stats
	if cc := sys.Client.Cache(); cc != nil {
		st0 = cc.Stats()
	}
	if err := driveThreads(measured, nil); err != nil {
		return CacheSweepPoint{}, err
	}
	sum := summarize(measured...)
	pt := CacheSweepPoint{
		Workload:     p.workloadName(),
		CacheEnabled: p.enabled,
		Threads:      p.threads,
		Ops:          sum.ops,
		WallMS:       float64(sum.wall) / 1e6,
		OpsPerSec:    sum.opsPerSec,
		P50Micros:    sum.p50,
		P99Micros:    sum.p99,
	}
	if cc := sys.Client.Cache(); cc != nil {
		st := cc.Stats()
		hits, misses := st.Hits-st0.Hits, st.Misses-st0.Misses
		if hits+misses > 0 {
			pt.HitRate = float64(hits) / float64(hits+misses)
		}
		pt.PrefetchIssued = st.PrefetchIssued - st0.PrefetchIssued
		pt.PrefetchUseful = st.PrefetchUseful - st0.PrefetchUseful
		pt.ResidentBytes = st.ResidentBytes
	}
	return pt, nil
}

// CacheSweep is the hot-data-tier exhibit: ops/s with the cache off vs on
// across the skew sweep, plus the sequential pair for the prefetcher.
func CacheSweep() Experiment {
	e := Experiment{
		ID:     "cache-sweep",
		Title:  "Client cache tier: throughput vs key skew, write-through + stride prefetch",
		XLabel: "Zipfian theta (0 = uniform; 1.10 marks the sequential scan)",
		YLabel: "ops/s / hit rate",
	}
	ops := max(OpsPerThread/4, 100)
	r, err := runClientCacheReport(ops, 0)
	if err != nil {
		e.Notes = append(e.Notes, fmt.Sprintf("sweep failed: %v", err))
		return e
	}
	offT, onT, onH := Series{Label: "cache off ops/s"}, Series{Label: "cache on ops/s"}, Series{Label: "cache on hit rate"}
	for i, p := range cacheSweepPoints(ops) {
		x := p.theta
		if p.sequential {
			x = 1.10 // off the theta axis, labeled in XLabel
		}
		off, on := r.Points[2*i], r.Points[2*i+1]
		offT.X, offT.Y = append(offT.X, x), append(offT.Y, off.OpsPerSec)
		onT.X, onT.Y = append(onT.X, x), append(onT.Y, on.OpsPerSec)
		onH.X, onH.Y = append(onH.X, x), append(onH.Y, on.HitRate)
	}
	e.Series = []Series{offT, onT, onH}
	e.Notes = append(e.Notes,
		fmt.Sprintf("cache on/off ops/s at zipf-0.99: %.2fx (hit rate %.0f%%)", r.SpeedupAtZipf99, 100*r.HitRateAtZipf99),
		fmt.Sprintf("YCSB-B (95/5) scrambled-Zipfian keys, sync closed loop over a %v-latency fabric; %d records x %d B, tier %d lines x %d B",
			cacheSweepLatency, cacheSweepRecords, cacheSweepValueSize, cacheSweepLines, cacheSweepLineSize))
	return e
}

// cacheSweepPoints enumerates the sweep's workload axis (cache off; the
// sweep runs every point off, then on).
func cacheSweepPoints(opsPerThread int) []cacheSweepParams {
	base := cacheSweepParams{threads: 2, opsPerThread: opsPerThread}
	out := []cacheSweepParams{base, base, base, base, base}
	out[0].dist = ycsb.Uniform
	for i, theta := range []float64{0.60, 0.90, 0.99} {
		out[1+i].dist, out[1+i].theta = ycsb.ScrambledZipfian, theta
	}
	out[4].sequential = true
	return out
}

// ClientCacheReport is the document committed as BENCH_client_cache.json.
type ClientCacheReport struct {
	hostEnv
	FabricLatencyUS float64           `json:"fabric_latency_us"`
	OpsPerThread    int               `json:"ops_per_thread"`
	Records         int               `json:"records"`
	ValueSize       int               `json:"value_size"`
	CacheLines      int               `json:"cache_lines"`
	CacheLineSize   int               `json:"cache_line_size"`
	Workload        string            `json:"workload"`
	Trials          int               `json:"trials_per_point_best_of"`
	Points          []CacheSweepPoint `json:"points"`
	SpeedupAtZipf99 float64           `json:"cache_over_none_at_zipf099"`
	HitRateAtZipf99 float64           `json:"hit_rate_at_zipf099"`
	UniformOverhead float64           `json:"uniform_overhead_frac"` // (off-on)/off; negative = cache helped
	SeqSpeedup      float64           `json:"prefetch_over_none_sequential"`
}

// runClientCacheReport runs the full sweep (cache off/on x uniform,
// zipf-0.60/0.90/0.99, sequential) with opsPerThread ops per client thread.
func runClientCacheReport(opsPerThread, _ int) (ClientCacheReport, error) {
	r := ClientCacheReport{
		hostEnv:         currentEnv(),
		FabricLatencyUS: float64(cacheSweepLatency) / 1e3,
		OpsPerThread:    opsPerThread,
		Records:         cacheSweepRecords,
		ValueSize:       cacheSweepValueSize,
		CacheLines:      cacheSweepLines,
		CacheLineSize:   cacheSweepLineSize,
		Workload:        "YCSB-B (95% read, 5% update), scrambled-Zipfian keys, sync closed loop, 2 threads; sequential pair isolates the stride prefetcher",
		Trials:          cacheSweepTrials,
	}
	for _, pt := range cacheSweepPoints(opsPerThread) {
		off, err := bestCacheSweep(pt)
		if err != nil {
			return r, err
		}
		pt.enabled = true
		on, err := bestCacheSweep(pt)
		if err != nil {
			return r, err
		}
		r.Points = append(r.Points, off, on)
		switch {
		case pt.sequential:
			if off.OpsPerSec > 0 {
				r.SeqSpeedup = on.OpsPerSec / off.OpsPerSec
			}
		case pt.dist == ycsb.Uniform:
			if off.OpsPerSec > 0 {
				r.UniformOverhead = (off.OpsPerSec - on.OpsPerSec) / off.OpsPerSec
			}
		case pt.theta == 0.99:
			if off.OpsPerSec > 0 {
				r.SpeedupAtZipf99 = on.OpsPerSec / off.OpsPerSec
			}
			r.HitRateAtZipf99 = on.HitRate
		}
	}
	return r, nil
}

// Check is the hot-data-tier gate: at θ = 0.99 the cached points must beat
// the uncached ones with most reads served locally, even at smoke op counts.
func (r ClientCacheReport) Check() error {
	if r.SpeedupAtZipf99 <= 1 {
		return fmt.Errorf("client cache: %.2fx ops/s over no cache at zipf-0.99, want > 1x", r.SpeedupAtZipf99)
	}
	if r.HitRateAtZipf99 <= 0.5 {
		return fmt.Errorf("client cache: hit rate %.2f at zipf-0.99, want > 0.5", r.HitRateAtZipf99)
	}
	return nil
}

func init() {
	registry["cache-sweep"] = CacheSweep
}
