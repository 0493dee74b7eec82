package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/system"
	"cowbird/internal/telemetry"
)

// The engine-scaling sweep measures the real Cowbird-Spot datapath (no
// perfsim): a deployment per point, N client threads driving closed-loop
// windows of async reads/writes, one shared engine worker vs a worker per
// queue set. The fabric runs with a fixed propagation latency (SetLatency:
// infinite bandwidth, fixed delay — the pipelining-relevant model of the
// testbed network), so an engine that keeps only one round in flight pays
// round trips the worker-per-queue engine overlaps. Results land in BENCH_spot_datapath.json via
// WriteSpotDatapathJSON / cmd/cowbird-bench -spotjson.

// SpotScalePoint is one measured configuration of the sweep.
type SpotScalePoint struct {
	Mode        string  `json:"mode"`     // "workers=1" | "workers=queues"
	Batching    string  `json:"batching"` // "static" | "adaptive"
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Threads     int     `json:"threads"`
	BatchSize   int     `json:"batch_size"`
	Ops         int     `json:"ops"`
	WallMS      float64 `json:"wall_ms"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
}

// spotScaleParams configures one point.
type spotScaleParams struct {
	threads      int
	workers      int // spot.Config.Workers: 1 (one shared worker) or 0 (a worker per queue set)
	batch        int
	adaptive     bool // Spot.AdaptiveBatch + adaptive NIC inbox pop
	gomaxprocs   int  // 0: ambient
	opsPerThread int
	window       int
	latency      time.Duration
	telemetry    *telemetry.Telemetry // nil: instrumentation compiled out
}

const (
	spotScaleLatency = 25 * time.Microsecond
	spotScaleWindow  = 16
)

// spotWarmupOps is how many ops each client thread runs before the
// measured phase of runSpotScale. Exported to tests via arithmetic: a
// telemetry hub wired into a run observes warmup + measured ops.
func spotWarmupOps(opsPerThread int) int {
	if opsPerThread < 200 {
		return opsPerThread
	}
	return 200
}

// runSpotScale builds a deployment, drives it, and tears it down. Each
// point warms up (workers spin up, reusable slices and rings grow, the
// adaptive controllers learn the load) before the measured phase, so the
// reported allocs/op is the steady state, not setup cost.
func runSpotScale(p spotScaleParams) (SpotScalePoint, error) {
	restoreGMP := pinGMP(p.gomaxprocs)
	defer restoreGMP()
	cfg := system.DefaultConfig()
	cfg.Threads = p.threads
	cfg.RegionSize = 8 << 20
	cfg.Spot.Workers = p.workers
	cfg.Spot.BatchSize = p.batch
	cfg.Spot.AdaptiveBatch = p.adaptive
	cfg.NIC.AdaptiveInboxBatch = p.adaptive
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	cfg.Telemetry = p.telemetry
	sys, err := system.New(cfg)
	if err != nil {
		return SpotScalePoint{}, err
	}
	defer sys.Close()
	if p.latency > 0 {
		sys.Fabric.SetLatency(p.latency)
	}

	// Timer-resolution keeper: when every goroutine in the process is
	// sleeping, the Go runtime parks in the OS and short timers fire with
	// ~1 ms granularity; with any runnable goroutine they fire with µs
	// accuracy. The worker-per-queue engine always has a runnable worker, the
	// one-worker engine often does not, so without a keeper the sweep would
	// measure OS timer coarseness instead of datapath overlap. The keeper
	// yields every iteration, so real work always runs first.
	keeperStop := make(chan struct{})
	defer close(keeperStop)
	go func() {
		for {
			select {
			case <-keeperStop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var (
		latMu    sync.Mutex
		allLats  []time.Duration
		firstErr error
	)
	record := func(err error) {
		latMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		latMu.Unlock()
	}
	// drive runs ops operations closed-loop through one thread's rings,
	// appending completed-op latencies to lats. Reads and writes target
	// disjoint per-thread strips so the sweep measures pipelining, not
	// conflict stalls; read destinations rotate through window slots and the
	// closed loop guarantees a slot's previous op completed before reuse.
	drive := func(ti, ops int, th *core.Thread, g *core.PollGroup,
		dests [][]byte, wbuf []byte, issueAt map[core.ReqID]time.Time,
		lats []time.Duration) ([]time.Duration, error) {
		base := uint64(ti) * 0x80000
		deadline := time.Now().Add(120 * time.Second)
		issued, done := 0, 0
		for done < ops {
			for issued < ops && issued-done < p.window {
				off := base + uint64(issued%1024)*256
				var id core.ReqID
				var err error
				if issued%4 == 3 {
					id, err = th.AsyncWrite(0, wbuf, off+0x40000)
				} else {
					id, err = th.AsyncRead(0, off, dests[issued%p.window])
				}
				if err != nil {
					break // ring full: drain completions first
				}
				if err := g.Add(id); err != nil {
					break
				}
				issueAt[id] = time.Now()
				issued++
			}
			ids, err := g.WaitErr(p.window, time.Second)
			if err != nil {
				return lats, fmt.Errorf("thread %d: %w", ti, err)
			}
			now := time.Now()
			for _, id := range ids {
				lats = append(lats, now.Sub(issueAt[id]))
				delete(issueAt, id)
				done++
			}
			if time.Now().After(deadline) {
				return lats, fmt.Errorf("thread %d stalled at %d/%d ops", ti, done, ops)
			}
		}
		return lats, nil
	}

	warmup := spotWarmupOps(p.opsPerThread)
	var warmWG, runWG sync.WaitGroup
	startCh := make(chan struct{})
	for ti := 0; ti < p.threads; ti++ {
		warmWG.Add(1)
		runWG.Add(1)
		go func(ti int) {
			defer runWG.Done()
			th, err := sys.Client.Thread(ti)
			if err != nil {
				record(err)
				warmWG.Done()
				return
			}
			g := th.PollCreate()
			dests := make([][]byte, p.window)
			for i := range dests {
				dests[i] = make([]byte, 64)
			}
			wbuf := make([]byte, 64)
			issueAt := make(map[core.ReqID]time.Time, p.window+1)
			lats := make([]time.Duration, 0, p.opsPerThread)
			_, werr := drive(ti, warmup, th, g, dests, wbuf, issueAt, lats[:0])
			warmWG.Done()
			if werr != nil {
				record(werr)
				return
			}
			<-startCh
			lats, err = drive(ti, p.opsPerThread, th, g, dests, wbuf, issueAt, lats[:0])
			if err != nil {
				record(err)
				return
			}
			latMu.Lock()
			allLats = append(allLats, lats...)
			latMu.Unlock()
		}(ti)
	}
	warmWG.Wait()
	latMu.Lock()
	warmErr := firstErr
	latMu.Unlock()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	close(startCh)
	runWG.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if warmErr != nil || firstErr != nil {
		if warmErr != nil {
			return SpotScalePoint{}, warmErr
		}
		return SpotScalePoint{}, firstErr
	}

	sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
	pct := func(q float64) float64 {
		if len(allLats) == 0 {
			return 0
		}
		i := int(q * float64(len(allLats)-1))
		return float64(allLats[i]) / 1e3
	}
	mode := "workers=queues"
	if p.workers > 0 {
		mode = fmt.Sprintf("workers=%d", p.workers)
	}
	batching := "static"
	if p.adaptive {
		batching = "adaptive"
	}
	ops := p.threads * p.opsPerThread
	return SpotScalePoint{
		Mode:        mode,
		Batching:    batching,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Threads:     p.threads,
		BatchSize:   p.batch,
		Ops:         ops,
		WallMS:      float64(wall) / 1e6,
		OpsPerSec:   float64(ops) / wall.Seconds(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		P50Micros:   pct(0.50),
		P99Micros:   pct(0.99),
	}, nil
}

// SpotBurstPoint measures the adaptive-batching trade under a bursty
// open-loop workload: bursts of back-to-back requests (where a large
// coalescing batch pays) separated by idle gaps, after each of which a lone
// request arrives (where anything above batch=1 costs pure latency). Static
// batching must pick one size for both regimes; the adaptive controller is
// supposed to have grown to Max inside each burst and decayed back to 1 by
// the time the lone request lands.
type SpotBurstPoint struct {
	Batching      string  `json:"batching"` // "static" | "adaptive"
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Bursts        int     `json:"bursts"`
	BurstSize     int     `json:"burst_size"`
	IdleGapMS     float64 `json:"idle_gap_ms"`
	PeakOpsPerSec float64 `json:"peak_ops_per_sec"` // aggregate inside bursts
	LoneP50Micros float64 `json:"lone_op_p50_us"`   // first-op-after-idle latency
	LoneP99Micros float64 `json:"lone_op_p99_us"`
}

// bestSpotBurst runs the bursty point several times and keeps the
// highest-throughput trial — same peak-of-N reasoning as bestFabricScale:
// short single-core runs swing by double-digit percentages with host mood,
// and both batching modes get the same treatment.
func bestSpotBurst(adaptive bool, gmp, bursts, burstSize int) (SpotBurstPoint, error) {
	var best SpotBurstPoint
	for i := 0; i < fabricScaleTrials; i++ {
		pt, err := runSpotBurst(adaptive, gmp, bursts, burstSize)
		if err != nil {
			return SpotBurstPoint{}, err
		}
		if pt.PeakOpsPerSec > best.PeakOpsPerSec {
			best = pt
		}
	}
	return best, nil
}

// runSpotBurst drives the bursty open-loop workload against one engine
// configuration and reports burst throughput plus lone-op latency.
func runSpotBurst(adaptive bool, gmp, bursts, burstSize int) (SpotBurstPoint, error) {
	restoreGMP := pinGMP(gmp)
	defer restoreGMP()
	cfg := system.DefaultConfig()
	cfg.Threads = 1
	cfg.RegionSize = 8 << 20
	cfg.Spot.BatchSize = 32
	cfg.Spot.AdaptiveBatch = adaptive
	cfg.NIC.AdaptiveInboxBatch = adaptive
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	sys, err := system.New(cfg)
	if err != nil {
		return SpotBurstPoint{}, err
	}
	defer sys.Close()
	sys.Fabric.SetLatency(spotScaleLatency)

	keeperStop := make(chan struct{})
	defer close(keeperStop)
	go func() {
		for {
			select {
			case <-keeperStop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	th, err := sys.Client.Thread(0)
	if err != nil {
		return SpotBurstPoint{}, err
	}
	g := th.PollCreate()
	dests := make([][]byte, burstSize)
	for i := range dests {
		dests[i] = make([]byte, 64)
	}
	lone := make([]byte, 64)
	const idleGap = 2 * time.Millisecond

	var burstTime time.Duration
	var loneLats []time.Duration
	for b := 0; b < bursts; b++ {
		// Burst: issue the whole batch back to back, then wait it out.
		t0 := time.Now()
		var ids []core.ReqID
		for k := 0; k < burstSize; k++ {
			id, err := th.AsyncRead(0, uint64(k)*256, dests[k])
			if err != nil {
				return SpotBurstPoint{}, fmt.Errorf("burst %d op %d: %w", b, k, err)
			}
			if err := g.Add(id); err != nil {
				return SpotBurstPoint{}, err
			}
			ids = append(ids, id)
		}
		for done := 0; done < len(ids); {
			out, err := g.WaitErr(len(ids)-done, 10*time.Second)
			if err != nil {
				return SpotBurstPoint{}, fmt.Errorf("burst %d: %w", b, err)
			}
			if len(out) == 0 {
				return SpotBurstPoint{}, fmt.Errorf("burst %d timed out at %d/%d", b, done, len(ids))
			}
			done += len(out)
		}
		burstTime += time.Since(t0)

		// Idle gap, then the lone request whose latency the batch policy
		// must not tax.
		time.Sleep(idleGap)
		t0 = time.Now()
		if err := th.ReadSync(0, 0x40000, lone, 10*time.Second); err != nil {
			return SpotBurstPoint{}, fmt.Errorf("lone op %d: %w", b, err)
		}
		loneLats = append(loneLats, time.Since(t0))
	}

	sort.Slice(loneLats, func(i, j int) bool { return loneLats[i] < loneLats[j] })
	pct := func(q float64) float64 {
		return float64(loneLats[int(q*float64(len(loneLats)-1))]) / 1e3
	}
	batching := "static"
	if adaptive {
		batching = "adaptive"
	}
	return SpotBurstPoint{
		Batching:      batching,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Bursts:        bursts,
		BurstSize:     burstSize,
		IdleGapMS:     float64(idleGap) / 1e6,
		PeakOpsPerSec: float64(bursts*burstSize) / burstTime.Seconds(),
		LoneP50Micros: pct(0.50),
		LoneP99Micros: pct(0.99),
	}, nil
}

// SpotScale is the engine-scaling exhibit: aggregate throughput and tail
// latency of one shared worker vs a worker per queue set as client threads
// (and with them queue sets) grow, plus a batching on/off comparison at the
// highest thread count.
func SpotScale() Experiment {
	e := Experiment{
		ID:     "spot-scale",
		Title:  "Spot-engine datapath scaling: Workers=1 vs a worker per queue set",
		XLabel: "client threads (= queue sets)",
		YLabel: "ops/s / us",
	}
	oneT := Series{Label: "workers=1 ops/s"}
	perQT := Series{Label: "workers=queues ops/s"}
	oneP99 := Series{Label: "workers=1 p99 (us)"}
	perQP99 := Series{Label: "workers=queues p99 (us)"}
	ops := OpsPerThread / 4
	if ops < 100 {
		ops = 100
	}
	var lastOne, lastPerQ SpotScalePoint
	for _, th := range []int{1, 2, 4} {
		base := spotScaleParams{
			threads: th, batch: 32, opsPerThread: ops,
			window: spotScaleWindow, latency: spotScaleLatency,
		}
		base.workers = 1
		p1, err := runSpotScale(base)
		if err != nil {
			e.Notes = append(e.Notes, fmt.Sprintf("workers=1@%d failed: %v", th, err))
			continue
		}
		base.workers = 0
		pq, err := runSpotScale(base)
		if err != nil {
			e.Notes = append(e.Notes, fmt.Sprintf("workers=queues@%d failed: %v", th, err))
			continue
		}
		oneT.X = append(oneT.X, float64(th))
		oneT.Y = append(oneT.Y, p1.OpsPerSec)
		perQT.X = append(perQT.X, float64(th))
		perQT.Y = append(perQT.Y, pq.OpsPerSec)
		oneP99.X = append(oneP99.X, float64(th))
		oneP99.Y = append(oneP99.Y, p1.P99Micros)
		perQP99.X = append(perQP99.X, float64(th))
		perQP99.Y = append(perQP99.Y, pq.P99Micros)
		lastOne, lastPerQ = p1, pq
	}
	e.Series = []Series{oneT, perQT, oneP99, perQP99}
	if lastOne.OpsPerSec > 0 {
		e.Notes = append(e.Notes, fmt.Sprintf(
			"workers=queues / workers=1 aggregate ops/s at %d threads: %.2fx",
			lastOne.Threads, lastPerQ.OpsPerSec/lastOne.OpsPerSec))
	}
	if nb, err := runSpotScale(spotScaleParams{
		threads: 4, batch: 1, opsPerThread: ops,
		window: spotScaleWindow, latency: spotScaleLatency,
	}); err == nil && lastPerQ.OpsPerSec > 0 {
		e.Notes = append(e.Notes, fmt.Sprintf(
			"batching off (BATCH_SIZE=1) at 4 threads: %.0f ops/s (%.2fx of batched)",
			nb.OpsPerSec, nb.OpsPerSec/lastPerQ.OpsPerSec))
	}
	e.Notes = append(e.Notes, fmt.Sprintf(
		"real engine over a %v-latency fabric; closed loop, window %d/thread, 3:1 read:write, 64 B ops",
		spotScaleLatency, spotScaleWindow))
	return e
}

// SpotDatapathReport is the document committed as BENCH_spot_datapath.json.
type SpotDatapathReport struct {
	GOMAXPROCS      int              `json:"gomaxprocs"`
	NumCPU          int              `json:"num_cpu"`
	GMPSweep        []int            `json:"gomaxprocs_sweep"`
	HostNote        string           `json:"host_note,omitempty"`
	FabricLatencyUS float64          `json:"fabric_latency_us"`
	OpsPerThread    int              `json:"ops_per_thread"`
	Window          int              `json:"window"`
	Workload        string           `json:"workload"`
	Points          []SpotScalePoint `json:"points"`
	Burst           []SpotBurstPoint `json:"burst_points"`
	SpeedupAt4      float64          `json:"worker_per_queue_over_one_worker_at_4_threads"`
	CoreScaling4    float64          `json:"worker_per_queue_gomaxprocs4_over_gomaxprocs1"`
}

// RunSpotDatapathReport runs the full sweep with opsPerThread ops per
// client thread: the Workers=1 vs worker-per-queue matrix pinned at
// GOMAXPROCS=1, the batching-off points, the GOMAXPROCS ladder (GMPSweep)
// for a worker per queue set in both batching modes, and the bursty
// open-loop adaptive-vs-static comparison.
func RunSpotDatapathReport(opsPerThread int) (SpotDatapathReport, error) {
	r := SpotDatapathReport{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		GMPSweep:        GMPSweep,
		FabricLatencyUS: float64(spotScaleLatency) / 1e3,
		OpsPerThread:    opsPerThread,
		Window:          spotScaleWindow,
		Workload:        "closed loop, 3:1 read:write, 64 B ops, disjoint per-thread strips",
	}
	maxGMP := 0
	for _, g := range GMPSweep {
		if g > maxGMP {
			maxGMP = g
		}
	}
	if r.NumCPU < maxGMP {
		r.HostNote = fmt.Sprintf(
			"host exposes %d CPU(s); GOMAXPROCS points above that measure scheduler multiplexing of the run-to-completion workers, not hardware parallelism",
			r.NumCPU)
	}

	// Workers=1 vs worker-per-queue matrix at GOMAXPROCS=1.
	at4 := map[int]float64{}
	for _, workers := range []int{1, 0} {
		for _, th := range []int{1, 2, 4} {
			pt, err := runSpotScale(spotScaleParams{
				threads: th, workers: workers, batch: 32, gomaxprocs: 1,
				opsPerThread: opsPerThread, window: spotScaleWindow, latency: spotScaleLatency,
			})
			if err != nil {
				return r, err
			}
			r.Points = append(r.Points, pt)
			if th == 4 {
				at4[workers] = pt.OpsPerSec
			}
		}
	}
	for _, workers := range []int{1, 0} {
		pt, err := runSpotScale(spotScaleParams{
			threads: 4, workers: workers, batch: 1, gomaxprocs: 1,
			opsPerThread: opsPerThread, window: spotScaleWindow, latency: spotScaleLatency,
		})
		if err != nil {
			return r, err
		}
		r.Points = append(r.Points, pt)
	}
	if at4[1] > 0 {
		r.SpeedupAt4 = at4[0] / at4[1]
	}

	// GOMAXPROCS ladder: a worker per queue set at 4 queue sets, static and
	// adaptive batching at every core count.
	scaling := map[int]float64{}
	for _, gmp := range GMPSweep {
		for _, adaptive := range []bool{false, true} {
			pt, err := runSpotScale(spotScaleParams{
				threads: 4, batch: 32, adaptive: adaptive, gomaxprocs: gmp,
				opsPerThread: opsPerThread, window: spotScaleWindow, latency: spotScaleLatency,
			})
			if err != nil {
				return r, err
			}
			r.Points = append(r.Points, pt)
			if !adaptive {
				scaling[gmp] = pt.OpsPerSec
			}
		}
	}
	if scaling[1] > 0 && scaling[4] > 0 {
		r.CoreScaling4 = scaling[4] / scaling[1]
	}

	// Bursty open-loop comparison: static vs adaptive batching.
	bursts := opsPerThread / 25
	if bursts < 20 {
		bursts = 20
	}
	for _, adaptive := range []bool{false, true} {
		bp, err := bestSpotBurst(adaptive, 2, bursts, 64)
		if err != nil {
			return r, err
		}
		r.Burst = append(r.Burst, bp)
	}
	return r, nil
}

// WriteSpotDatapathJSON runs the sweep and writes the report to path.
func WriteSpotDatapathJSON(path string, opsPerThread int) error {
	r, err := RunSpotDatapathReport(opsPerThread)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func init() {
	registry["spot-scale"] = SpotScale
}
