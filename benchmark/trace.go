package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cowbird/internal/telemetry"
)

// traceSpanCap bounds the traced slice's memory (40 B a span). The slice ends
// early when the buffer fills, so a fast workload traces fewer seconds, not
// more bytes.
const traceSpanCap = 1 << 21

// tracedResult is a traced run: the source of per-layer numbers only.
type tracedResult struct {
	metrics   metricSet
	spans     []spanSummary
	recorded  int
	counters  layerCounters
	untraced  map[string]float64
	traced    map[string]float64
	notes     []string
	attempted int64
	failed    int64
	err       error
}

// finish drains and audits a deployment and folds the outcome into rec.
func finish(clk clock, d *deployment, rec *recorder) error {
	if err := drain(clk, d.lanes, rec); err != nil {
		return err
	}
	checked, bad, err := d.audit()
	rec.attempted += checked
	rec.failed += bad
	return err
}

// sliceFigures are a slice's headline numbers and its per-interval series.
func sliceFigures(sl slice) (map[string]float64, series) {
	s := sl.series()
	_, p50, _, _, _ := sl.whole()
	return map[string]float64{
		"ops_per_s":        quietHigh(s.OpsPerS),
		"lat_p50_us":       quietLow(s.P50Us),
		"lat_p50_us_whole": p50,
		"seconds":          float64(sl.wallNs) / 1e9,
		"ops":              float64(sl.ops),
	}, s
}

// runTraced measures, in one process: an untraced reference slice and a slice
// at GOMAXPROCS=nproc on a deployment without a telemetry hub; then a traced
// slice on a second deployment with the hub installed through the public
// config and every harness call wrapped in a span; then the isolated probes.
// The `seconds` budget is split 4:3:6 between the three slices.
func runTraced(w *workload, seed int64, seconds int, processStart time.Time, binDir, base string) tracedResult {
	clk := clock{base: processStart}
	res := tracedResult{metrics: metricSet{}}
	m := res.metrics
	rec := &recorder{}
	budget := time.Duration(seconds) * time.Second
	fail := func(stage string, err error) tracedResult {
		res.err = fmt.Errorf("%s: %w", stage, err)
		res.attempted, res.failed = rec.attempted, rec.failed
		if res.failed == 0 {
			res.failed = 1
		}
		return res
	}

	// --- untraced reference ------------------------------------------------
	d, _, err := setUp(w, clk, seed, nil)
	if err != nil {
		return fail("set-up", err)
	}
	rec.attempted += d.preloadOps
	m.set("system.preload_mb_per_s", float64(d.preloadBytes)/1e6/(float64(d.preloadNs)/1e9))
	if _, err := runSlice(clk, d.lanes, rec, warmup, false, nil); err != nil {
		d.close()
		return fail("warm-up", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	total0, steal0, ticksOK := cpuTicks()
	ref, err := runSlice(clk, d.lanes, rec, budget*4/15, true, nil)
	if err != nil {
		d.close()
		return fail("untraced slice", err)
	}
	total1, steal1, _ := cpuTicks()
	runtime.ReadMemStats(&ms1)
	var refSeries series
	res.untraced, refSeries = sliceFigures(ref)
	if ref.ops > 0 {
		m.set("go.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(ref.ops))
	}
	m.set("go.gc_pause_ms_per_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/(float64(ref.wallNs)/1e9))
	m.set("go.heap_mb", float64(ms1.HeapInuse)/1e6)
	m.set("e2e.lat_p99_us", quietLow(refSeries.P99Us))
	m.set("host.quiet_interval_share", quietShare(refSeries.OpsPerS))
	if ticksOK && total1 > total0 {
		m.set("host.steal_pct", 100*float64(steal1-steal0)/float64(total1-total0))
	} else {
		m.set("host.steal_pct", 0)
		res.notes = append(res.notes, "host.steal_pct: /proc/stat unavailable, reported as 0")
	}

	// The same lanes with every hardware thread available: how much of the
	// pinned figure is the single P. Ungated — on a 2-vCPU host it is
	// noise-bound.
	runtime.GOMAXPROCS(runtime.NumCPU())
	par, err := runSlice(clk, d.lanes, rec, budget*3/15, true, nil)
	runtime.GOMAXPROCS(1)
	if err != nil {
		d.close()
		return fail("parallel slice", err)
	}
	parFigures, _ := sliceFigures(par)
	m.set("system.par_ops_ratio", parFigures["ops_per_s"]/res.untraced["ops_per_s"])
	err = finish(clk, d, rec)
	d.close()
	if err != nil {
		return fail("untraced deployment", err)
	}

	// --- traced slice --------------------------------------------------------
	hub := telemetry.New(telemetry.Config{})
	d, _, err = setUp(w, clk, seed, hub)
	if err != nil {
		return fail("traced set-up", err)
	}
	defer d.close()
	rec.attempted += d.preloadOps
	if _, err := runSlice(clk, d.lanes, rec, warmup/2, false, nil); err != nil {
		return fail("traced warm-up", err)
	}
	tr := newTracer(traceSpanCap)
	c0, h0 := d.counters(), stageSnapshot(hub)
	refused0, attempted0, rounds0 := rec.refused, rec.attempted, hub.EngineRounds.Value()
	var hot0, cold0 int64
	if l := d.kvLane; l != nil {
		hot0, cold0 = l.hot, l.cold
	}
	traced, err := runSlice(clk, d.lanes, rec, budget*6/15, true, tr)
	if err != nil {
		return fail("traced slice", err)
	}
	res.counters = d.counters().sub(c0)
	stages := stageSnapshot(hub).sub(h0)
	rounds := float64(hub.EngineRounds.Value() - rounds0)
	res.traced, _ = sliceFigures(traced)
	ops := float64(rec.attempted - attempted0)
	if err := finish(clk, d, rec); err != nil {
		return fail("traced deployment", err)
	}
	if ops <= 0 {
		return fail("traced slice", fmt.Errorf("no operation was issued"))
	}

	sum := summarize(tr.spans)
	res.spans, res.recorded = sum[:], len(tr.spans)
	if err := writeSpans(base+".spans.jsonl", tr.spans, 20000); err != nil {
		res.notes = append(res.notes, fmt.Sprintf("spans file: %v", err))
	}
	spanOps := float64(sum[spanOp].Count)
	if spanOps == 0 {
		spanOps = math.NaN()
	}
	perOp := func(ns int64) float64 { return float64(ns) / spanOps }
	m.set("core.issue_ns_per_op", perOp(sum[spanCoreIssue].TotalNs))
	m.set("core.poll_ns_per_op", perOp(sum[spanCorePoll].TotalNs))
	m.set("core.polls_per_op", float64(sum[spanCorePoll].Count)/spanOps)
	m.set("core.ring_full_per_kop", 1000*float64(rec.refused-refused0)/ops)
	m.set("sched.yield_ns_per_op", perOp(sum[spanYield].TotalNs))
	m.set("harness.self_ns_per_op", perOp(sum[spanRun].SelfNs))
	m.set("kv.read_hot_ns", sum[spanKVReadHot].P50Ns)
	m.set("kv.read_cold_issue_ns", sum[spanKVReadCold].P50Ns)
	m.set("kv.upsert_ns", sum[spanKVUpsert].P50Ns)
	m.set("kv.complete_pending_ns_per_op", perOp(sum[spanKVCompletePend].TotalNs))
	m.set("ycsb.next_ns", sum[spanYCSBNext].P50Ns)
	m.set("kv.cold_ratio", 0)
	if l := d.kvLane; l != nil {
		if reads := (l.hot - hot0) + (l.cold - cold0); reads > 0 {
			m.set("kv.cold_ratio", float64(l.cold-cold0)/float64(reads))
		}
	}

	c := res.counters
	m.set("rdma.frames_per_op", float64(c.FabricFrames)/ops)
	m.set("rdma.bytes_per_op", float64(c.FabricBytes)/ops)
	m.set("rdma.dropped_frames", float64(c.FabricDropped))
	m.set("spot.probes_per_op", float64(c.SpotProbes)/ops)
	m.set("spot.entries_per_batch", ratio(c.SpotReads, c.SpotBatches))
	m.set("spot.red_updates_per_op", float64(c.SpotRed)/ops)
	m.set("spot.conflict_stalls_per_kop", 1000*float64(c.SpotConflicts)/ops)
	m.set("spot.replica_writes_per_write", ratio(c.SpotReplica, c.SpotWrites))
	m.set("p4.pkts_recycled_per_op", float64(c.P4Recycled)/ops)
	m.set("p4.probes_per_op", float64(c.P4Probes)/ops)
	m.set("p4.reads_paused_per_kop", 1000*float64(c.P4ReadsPaused)/ops)
	m.set("p4.recoveries", float64(c.P4Recoveries))
	m.set("cache.hit_ratio", ratio(c.CacheHits, c.CacheHits+c.CacheMisses))
	m.set("cache.bypass_ratio", ratio(c.CacheBypasses, c.CacheHits+c.CacheMisses+c.CacheBypasses))
	m.set("cache.prefetch_useful_ratio", ratio(c.CachePfUseful, c.CachePfIssued))

	m.set("spot.probe_ns_p50", p50Ns(stages.probe))
	m.set("spot.fetch_ns_p50", p50Ns(stages.fetch))
	m.set("spot.execute_ns_p50", p50Ns(stages.execute))
	m.set("spot.publish_ns_p50", p50Ns(stages.publish))
	m.set("spot.service_ns_p50", p50Ns(stages.service))

	m.set("telemetry.trace_overhead_pct", 100*(res.untraced["ops_per_s"]-res.traced["ops_per_s"])/res.untraced["ops_per_s"])

	// Latency budget. On the spot engine a closed-loop window completes as
	// one engine round, so an operation waits one whole engine cycle: the
	// probes that find nothing, then the one round that serves it — fetch
	// (timed from the round's start, so it holds that round's probe), execute,
	// publish. The engine is always inside one of these stages, and on the
	// single P a stage's wall time includes whatever ran while it waited — the
	// NIC and pool goroutines and the driver's own burst — so the stages alone
	// make up the cycle. Stage times enter as means: the hub's histograms keep
	// exact sums but only power-of-two buckets, and 33 probes at a
	// bucket-interpolated median would be off by tens of percent. The P4
	// engine has no rounds; it times each request's residency instead (the
	// service stage). KV's median operation is a hot read: its own two spans.
	// The residual is what this leaves of the median latency; means include
	// the rare long round that a median ignores, so it can be negative.
	var accounted float64
	switch {
	case d.kvLane != nil:
		accounted = sum[spanYCSBNext].P50Ns + sum[spanKVReadHot].P50Ns
	case rounds > 0:
		idleProbes := float64(c.SpotProbes)/rounds - 1
		accounted = idleProbes*meanNs(stages.probe) + meanNs(stages.fetch) + meanNs(stages.execute) + meanNs(stages.publish)
	default:
		accounted = sum[spanCoreIssue].P50Ns + sum[spanCorePoll].P50Ns + m["spot.service_ns_p50"]
	}
	// Stage medians and span medians are whole-slice figures, so they are set
	// against the whole-slice median latency, not its quiet quartile.
	latNs := res.traced["lat_p50_us_whole"] * 1e3
	m.set("trace.lat_residual_pct", 100*(latNs-accounted)/latNs)
	res.traced["accounted_ns"] = accounted
	if n := sum[spanOp].Count; n > 0 {
		res.traced["lat_mean_us"] = float64(sum[spanOp].TotalNs) / float64(n) / 1e3
	}
	res.traced["engine_rounds"] = rounds

	// --- isolated probes ---------------------------------------------------
	pm, notes := runProbes(binDir)
	for k, v := range pm {
		m.set(k, v)
	}
	res.notes = append(res.notes, notes...)
	res.attempted, res.failed = rec.attempted, rec.failed
	return res
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// stageHists are the engine stage histograms of a telemetry hub, as
// subtractable snapshots.
type stageHists struct {
	probe, fetch, execute, publish, service telemetry.HistSnapshot
}

func stageSnapshot(hub *telemetry.Telemetry) stageHists {
	return stageHists{
		probe:   hub.StageProbe.Snapshot(),
		fetch:   hub.StageFetch.Snapshot(),
		execute: hub.StageExecute.Snapshot(),
		publish: hub.StagePublish.Snapshot(),
		service: hub.StageService.Snapshot(),
	}
}

func subHist(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	out := telemetry.HistSnapshot{Count: a.Count - b.Count, SumNanos: a.SumNanos - b.SumNanos, Buckets: make([]int64, len(a.Buckets))}
	for i := range a.Buckets {
		out.Buckets[i] = a.Buckets[i]
		if i < len(b.Buckets) {
			out.Buckets[i] -= b.Buckets[i]
		}
	}
	return out
}

func (a stageHists) sub(b stageHists) stageHists {
	return stageHists{subHist(a.probe, b.probe), subHist(a.fetch, b.fetch), subHist(a.execute, b.execute),
		subHist(a.publish, b.publish), subHist(a.service, b.service)}
}

// meanNs is a stage's exact mean (sum over count); 0 when never recorded.
func meanNs(h telemetry.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNanos) / float64(h.Count)
}

// p50Ns is a stage's median in ns; a stage the workload's engine never
// records reads 0.
func p50Ns(h telemetry.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Quantile(0.5).Nanoseconds())
}
