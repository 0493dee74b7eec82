package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cowbird/internal/rdma"
	"cowbird/internal/wire"
)

// The fabric-datapath sweep measures the software NIC + fabric layer in
// isolation (no Cowbird engine): N client threads, each with its own QP
// pair on a shared NIC pair, drive closed-loop windows of 3:1 read:write
// RDMA verbs over the datapath as deployed — pooled frames recycled after
// delivery, senders delivering directly to the destination inbox off an
// atomic COW snapshot, per-QP locks. (The pre-sharding datapath it was once
// compared against is gone; its last figures are frozen in EXPERIMENTS.md.)
// Results land in BENCH_fabric_datapath.json via WriteFabricDatapathJSON /
// cmd/cowbird-bench -fabricjson.

// FabricScalePoint is one measured configuration of the sweep.
type FabricScalePoint struct {
	InboxBatch   string  `json:"inbox_batch"` // "fixed" | "adaptive"
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Threads      int     `json:"threads"`
	Ops          int     `json:"ops"`
	OpBytes      int     `json:"op_bytes"`
	WallMS       float64 `json:"wall_ms"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	FramesPerSec float64 `json:"frames_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	P50Micros    float64 `json:"p50_us"`
	P99Micros    float64 `json:"p99_us"`
}

// fabricScaleParams configures one point.
type fabricScaleParams struct {
	threads       int
	adaptiveInbox bool
	gomaxprocs    int // <= 0: leave the ambient value alone
	opsPerThread  int
	window        int
	opBytes       int
}

const (
	fabricScaleWindow  = 32
	fabricScaleOpBytes = 4096
	fabricScaleTrials  = 3
)

// bestFabricScale runs a point fabricScaleTrials times and keeps the
// highest-throughput trial. The sweep runs on whatever machine CI or the
// operator has, where scheduler and co-tenant noise easily swings a short
// single-core run by double-digit percentages; peak-of-N is the usual way
// to report the datapath's capability rather than the host's mood.
func bestFabricScale(p fabricScaleParams) (FabricScalePoint, error) {
	var best FabricScalePoint
	for i := 0; i < fabricScaleTrials; i++ {
		pt, err := runFabricScale(p)
		if err != nil {
			return FabricScalePoint{}, err
		}
		if pt.OpsPerSec > best.OpsPerSec {
			best = pt
		}
	}
	return best, nil
}

// fabricThread is one client thread's endpoint state. Scratch buffers are
// allocated at setup so the measured loop itself allocates nothing and the
// mallocs-per-op delta charges only the datapath.
type fabricThread struct {
	qp         *rdma.QP
	cq         *rdma.CQ
	rkey       uint32
	localBase  uint64
	remoteBase uint64
	issueAt    []time.Time // indexed by WR id % window
	scratch    []rdma.CQE
	lats       []time.Duration
	guard      *time.Timer // reused stall-detection timer for Notify waits
}

// runLoop drives ops operations through the thread's QP, closed loop with
// at most window outstanding, 3 reads per write. Completed-op latencies are
// appended to dst (which must have capacity for ops entries).
func (ft *fabricThread) runLoop(ti, ops, window, opBytes int, dst []time.Duration) ([]time.Duration, error) {
	deadline := time.Now().Add(90 * time.Second)
	issued, done := 0, 0
	for done < ops {
		for issued < ops && issued-done < window {
			slot := uint64(issued % window)
			wr := rdma.WorkRequest{
				ID:      uint64(issued),
				LocalVA: ft.localBase + slot*uint64(opBytes),
				Length:  uint32(opBytes),
				RKey:    ft.rkey,
			}
			if issued%4 == 3 {
				wr.Verb = rdma.VerbWrite
				wr.RemoteVA = ft.remoteBase + slot*uint64(opBytes)
			} else {
				wr.Verb = rdma.VerbRead
				wr.RemoteVA = ft.remoteBase + uint64((window+int(slot))*opBytes)
			}
			ft.issueAt[slot] = time.Now()
			if err := ft.qp.PostSend(wr); err != nil {
				return dst, fmt.Errorf("thread %d: PostSend: %w", ti, err)
			}
			issued++
		}
		n := ft.cq.PollInto(ft.scratch)
		if n == 0 {
			// Event-driven wait: completions signal the CQ's Notify channel,
			// so blocking here instead of spin-polling keeps the single-core
			// budget on the datapath goroutines under measurement.
			if !ft.guard.Stop() {
				select {
				case <-ft.guard.C:
				default:
				}
			}
			ft.guard.Reset(100 * time.Millisecond)
			select {
			case <-ft.cq.Notify():
			case <-ft.guard.C:
				if time.Now().After(deadline) {
					return dst, fmt.Errorf("thread %d stalled at %d/%d ops", ti, done, ops)
				}
			}
			continue
		}
		now := time.Now()
		for i := 0; i < n; i++ {
			e := ft.scratch[i]
			if e.Status != rdma.StatusOK {
				return dst, fmt.Errorf("thread %d: op %d completed %v", ti, e.WRID, e.Status)
			}
			dst = append(dst, now.Sub(ft.issueAt[e.WRID%uint64(window)]))
			done++
		}
	}
	return dst, nil
}

// runFabricScale builds a NIC pair, drives it, and tears it down. Each
// point has a warmup phase (grow rings, fill the frame pool, settle
// timers) before the measured phase, so the reported mallocs-per-op is the
// steady state, not setup cost.
func runFabricScale(p fabricScaleParams) (FabricScalePoint, error) {
	// On the testbed hardware the ICRC is generated and checked by the RNIC,
	// not by a core; paying the CRC in software here would bury the datapath
	// overhead the sweep exists to measure. Both the TX-side computation and
	// the RX-side check are skipped (the report records this).
	defer func(oldV, oldC bool) {
		wire.VerifyICRC = oldV
		wire.ComputeICRC = oldC
	}(wire.VerifyICRC, wire.ComputeICRC)
	wire.VerifyICRC = false
	wire.ComputeICRC = false

	defer pinGMP(p.gomaxprocs)()

	cfg := rdma.DefaultConfig()
	cfg.AdaptiveInboxBatch = p.adaptiveInbox
	f := rdma.NewFabric()
	defer f.Close()
	cli := rdma.NewNIC(f, wire.MAC{2, 0xFB, 0, 0, 0, 1}, wire.IPv4Addr{10, 9, 0, 1}, cfg)
	srv := rdma.NewNIC(f, wire.MAC{2, 0xFB, 0, 0, 0, 2}, wire.IPv4Addr{10, 9, 0, 2}, cfg)
	defer srv.Close()
	defer cli.Close()

	// Per-thread buffers and MRs: threads must not share an MR, or the
	// region's DMA lock would serialize their payload copies and the sweep
	// would measure that instead of the datapath.
	stripe := uint64(2 * p.window * p.opBytes) // write half + read half
	threads := make([]*fabricThread, p.threads)
	for ti := range threads {
		localBase := 0x10000 + uint64(ti)*0x100000
		remoteBase := 0x8000000 + uint64(ti)*0x100000
		cli.RegisterMR(localBase, make([]byte, stripe))
		srvMR := srv.RegisterMR(remoteBase, make([]byte, stripe))
		sendCQ, recvCQ := rdma.NewCQ(), rdma.NewCQ()
		srvSendCQ, srvRecvCQ := rdma.NewCQ(), rdma.NewCQ()
		cqp := cli.CreateQP(sendCQ, recvCQ, uint32(100+ti))
		sqp := srv.CreateQP(srvSendCQ, srvRecvCQ, uint32(7000+ti))
		cqp.Connect(rdma.RemoteEndpoint{QPN: sqp.QPN(), MAC: srv.MAC(), IP: srv.IP()}, uint32(7000+ti))
		sqp.Connect(rdma.RemoteEndpoint{QPN: cqp.QPN(), MAC: cli.MAC(), IP: cli.IP()}, uint32(100+ti))
		threads[ti] = &fabricThread{
			qp: cqp, cq: sendCQ, rkey: srvMR.RKey,
			localBase: localBase, remoteBase: remoteBase,
			issueAt: make([]time.Time, p.window),
			scratch: make([]rdma.CQE, p.window),
			lats:    make([]time.Duration, 0, p.opsPerThread),
			guard:   time.NewTimer(time.Hour),
		}
	}

	// Timer-resolution keeper (see runSpotScale): keeps the runtime out of
	// the OS timer path so retransmit timers fire with µs accuracy.
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

	warmup := 200
	if warmup > p.opsPerThread {
		warmup = p.opsPerThread
	}
	var (
		mu       sync.Mutex
		allLats  []time.Duration
		firstErr error
	)
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var warmWG, runWG sync.WaitGroup
	startCh := make(chan struct{})
	for ti, ft := range threads {
		warmWG.Add(1)
		runWG.Add(1)
		go func(ti int, ft *fabricThread) {
			defer runWG.Done()
			_, werr := ft.runLoop(ti, warmup, p.window, p.opBytes, ft.lats[:0])
			warmWG.Done()
			if werr != nil {
				record(werr)
				return
			}
			<-startCh
			lats, err := ft.runLoop(ti, p.opsPerThread, p.window, p.opBytes, ft.lats[:0])
			if err != nil {
				record(err)
				return
			}
			mu.Lock()
			allLats = append(allLats, lats...)
			mu.Unlock()
		}(ti, ft)
	}
	warmWG.Wait()
	mu.Lock()
	warmErr := firstErr
	mu.Unlock()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st0 := f.Stats()
	start := time.Now()
	close(startCh)
	runWG.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	st1 := f.Stats()
	if warmErr != nil || firstErr != nil {
		if warmErr != nil {
			return FabricScalePoint{}, warmErr
		}
		return FabricScalePoint{}, firstErr
	}

	sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
	pct := func(q float64) float64 {
		if len(allLats) == 0 {
			return 0
		}
		return float64(allLats[int(q*float64(len(allLats)-1))]) / 1e3
	}
	inbox := "fixed"
	if p.adaptiveInbox {
		inbox = "adaptive"
	}
	ops := p.threads * p.opsPerThread
	return FabricScalePoint{
		InboxBatch:   inbox,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Threads:      p.threads,
		Ops:          ops,
		OpBytes:      p.opBytes,
		WallMS:       float64(wall) / 1e6,
		OpsPerSec:    float64(ops) / wall.Seconds(),
		FramesPerSec: float64(st1.Frames-st0.Frames) / wall.Seconds(),
		AllocsPerOp:  float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		P50Micros:    pct(0.50),
		P99Micros:    pct(0.99),
	}, nil
}

// FabricScale is the datapath-scaling exhibit: aggregate throughput and
// allocation rate of the pooled sharded datapath as client threads grow.
func FabricScale() Experiment {
	e := Experiment{
		ID:     "fabric-scale",
		Title:  "Fabric datapath: pooled sharded NIC + fabric, raw verbs",
		XLabel: "client threads (one QP pair each)",
		YLabel: "ops/s / allocs per op",
	}
	opsT := Series{Label: "ops/s"}
	allocs := Series{Label: "allocs/op"}
	ops := OpsPerThread
	if ops < 200 {
		ops = 200
	}
	for _, th := range []int{1, 2, 4} {
		pt, err := bestFabricScale(fabricScaleParams{
			threads: th, opsPerThread: ops,
			window: fabricScaleWindow, opBytes: fabricScaleOpBytes,
		})
		if err != nil {
			e.Notes = append(e.Notes, fmt.Sprintf("%d threads failed: %v", th, err))
			continue
		}
		opsT.X = append(opsT.X, float64(th))
		opsT.Y = append(opsT.Y, pt.OpsPerSec)
		allocs.X = append(allocs.X, float64(th))
		allocs.Y = append(allocs.Y, pt.AllocsPerOp)
	}
	e.Series = []Series{opsT, allocs}
	e.Notes = append(e.Notes, fmt.Sprintf(
		"raw NIC pair, closed loop, window %d/thread, 3:1 read:write, %d B ops, per-thread QPs+MRs",
		fabricScaleWindow, fabricScaleOpBytes))
	return e
}

// FabricDatapathReport is the document committed as
// BENCH_fabric_datapath.json.
type FabricDatapathReport struct {
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NumCPU       int                `json:"num_cpu"`
	GMPSweep     []int              `json:"gomaxprocs_sweep"`
	HostNote     string             `json:"host_note,omitempty"`
	OpsPerThread int                `json:"ops_per_thread"`
	Window       int                `json:"window"`
	OpBytes      int                `json:"op_bytes"`
	Workload     string             `json:"workload"`
	ICRCOffload  bool               `json:"icrc_hw_offload"`
	Trials       int                `json:"trials_per_point_best_of"`
	Points       []FabricScalePoint `json:"points"`
	CoreScaling4 float64            `json:"gomaxprocs4_over_gomaxprocs1"`
}

// RunFabricDatapathReport runs the full sweep with opsPerThread ops per
// client thread: 1/2/4 threads pinned at GOMAXPROCS=1, then the GOMAXPROCS
// ladder (GMPSweep) at 4 threads with the inbox pop batch fixed and
// adaptive.
func RunFabricDatapathReport(opsPerThread int) (FabricDatapathReport, error) {
	r := FabricDatapathReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GMPSweep:     GMPSweep,
		OpsPerThread: opsPerThread,
		Window:       fabricScaleWindow,
		OpBytes:      fabricScaleOpBytes,
		Workload:     "raw NIC pair, closed loop, 3:1 read:write, per-thread QPs and MRs, zero-latency fabric",
		ICRCOffload:  true, // ICRC generated/checked by RNIC hardware on the testbed, not by cores
		Trials:       fabricScaleTrials,
	}
	maxGMP := 0
	for _, g := range GMPSweep {
		if g > maxGMP {
			maxGMP = g
		}
	}
	if r.NumCPU < maxGMP {
		r.HostNote = fmt.Sprintf(
			"host exposes %d CPU(s); GOMAXPROCS points above that measure scheduler multiplexing of the datapath goroutines, not hardware parallelism",
			r.NumCPU)
	}
	for _, th := range []int{1, 2, 4} {
		pt, err := bestFabricScale(fabricScaleParams{
			threads: th, gomaxprocs: 1, opsPerThread: opsPerThread,
			window: fabricScaleWindow, opBytes: fabricScaleOpBytes,
		})
		if err != nil {
			return r, err
		}
		r.Points = append(r.Points, pt)
	}

	// GOMAXPROCS ladder: 4 client threads, fixed vs adaptive inbox pop
	// batch at every core count.
	scaling := map[int]float64{}
	for _, gmp := range GMPSweep {
		for _, adaptive := range []bool{false, true} {
			pt, err := bestFabricScale(fabricScaleParams{
				threads: 4, adaptiveInbox: adaptive, gomaxprocs: gmp,
				opsPerThread: opsPerThread, window: fabricScaleWindow, opBytes: fabricScaleOpBytes,
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
	return r, nil
}

// WriteFabricDatapathJSON runs the sweep and writes the report to path.
func WriteFabricDatapathJSON(path string, opsPerThread int) error {
	r, err := RunFabricDatapathReport(opsPerThread)
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
	registry["fabric-scale"] = FabricScale
}
