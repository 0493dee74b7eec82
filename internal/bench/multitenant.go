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
	"cowbird/internal/engine/spot"
	"cowbird/internal/rings"
	"cowbird/internal/system"
)

// The multi-tenant sweep is the proof of the fleet-scale claim (ISSUE PR
// 10): a sharded engine fleet with a composed memnode address space must
// hold aggregate throughput and tail latency as the number of *registered*
// tenants grows 64 → 4096, with a fixed active set carrying traffic. Each
// rung builds a real fleet — consistent-hash tenant placement, directory
// striping across memnodes, per-tenant QoS state installed — drives the
// active tenants closed-loop, and then physically audits isolation: every
// active tenant's extents may contain only {0, its own tag byte}, and
// sampled idle tenants' extents must be untouched. A misrouted WRITE
// (stale homes, wrong QP after placement) fails the audit even if every
// read looked right.
//
// The noisy-neighbor scenario is the QoS acceptance: a victim's p99 while
// an aggressor hammers the same engine under a token-bucket cap must stay
// within 2x its isolated baseline, with the aggressor actually held to its
// configured share. Results land in BENCH_multitenant_scale.json via
// WriteMultiTenantJSON / cmd/cowbird-bench -tenantjson.

// MultiTenantRungs are the registered-tenant counts of the full sweep. The
// CI smoke truncates with -tenantmax.
var MultiTenantRungs = []int{64, 256, 1024, 4096}

const (
	// multiTenantActive is the fixed active set: how many registered
	// tenants carry traffic at every rung.
	multiTenantActive = 16
	// multiTenantWindow is each active tenant's closed-loop depth.
	multiTenantWindow = 4
	// multiTenantTrials drives each rung's fleet this many times (same
	// deployment, fresh measurement) and keeps the lowest-p99 trial — the
	// peak-of-N treatment every other sweep in this package uses on the
	// shared 1-CPU host.
	multiTenantTrials = 3
	// multiTenantSpan is the per-stripe byte span each active tenant
	// writes; must fit the bench StripeSize.
	multiTenantSpan = 128 * 64
)

// multiTenantTag is the pattern byte active tenant ai stamps into every
// write; the isolation audit keys on it.
func multiTenantTag(ai int) byte { return byte(0xA1 + ai) }

// fleetBenchConfig shapes a fleet rung: compact rings and stripes so the
// 4096-tenant deployment stays in the hundreds of megabytes, slow
// heartbeats so lease renewal stays out of the measurement window, and the
// idle-probe backoff capped at a second so thousands of idle tenants cost
// ~1 probe round trip per second each instead of one per park interval.
func fleetBenchConfig(engines int) system.FleetConfig {
	cfg := system.DefaultFleetConfig()
	cfg.Engines = engines
	cfg.Memnodes = 4
	cfg.StripesPerTenant = 2
	cfg.StripeSize = 8 << 10
	cfg.Layout = rings.Layout{MetaEntries: 64, ReqDataBytes: 4 << 10, RespDataBytes: 4 << 10}
	cfg.Spot.StagingBytes = 64 << 10
	cfg.Spot.HeartbeatInterval = 30 * time.Second
	cfg.Spot.IdleQueueProbeInterval = time.Second
	return cfg
}

// MultiTenantPoint is one measured rung of the sweep.
type MultiTenantPoint struct {
	Tenants             int     `json:"tenants"`
	Engines             int     `json:"engines"`
	Memnodes            int     `json:"memnodes"`
	Active              int     `json:"active_tenants"`
	Ops                 int     `json:"ops"`
	SetupMS             float64 `json:"setup_ms"` // build fleet + register all tenants
	WallMS              float64 `json:"wall_ms"`
	AggOpsPerSec        float64 `json:"agg_ops_per_sec"`
	P50Micros           float64 `json:"p50_us"`
	P99Micros           float64 `json:"p99_us"`
	IsolationViolations int     `json:"isolation_violations"`
}

// driveTenant runs warmup+ops closed-loop operations through one tenant's
// thread 0: window multiTenantWindow, 3:1 read:write, 64 B tag payloads,
// stripes alternated so the composed address space (distinct memnodes per
// stripe) is on the measured path. Latencies are recorded from issue index
// warmup on.
func driveTenant(ten *system.Tenant, tag byte, warmup, ops int) ([]time.Duration, time.Time, time.Time, error) {
	th, err := ten.Client.Thread(0)
	if err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	wbuf := make([]byte, 64)
	for i := range wbuf {
		wbuf[i] = tag
	}
	slots := make([]opSlot, 2*multiTenantWindow)
	dests := make([][]byte, 2*multiTenantWindow)
	for i := range dests {
		dests[i] = make([]byte, 64)
	}
	lats := make([]time.Duration, 0, ops+multiTenantWindow)
	total := warmup + ops
	deadline := time.Now().Add(120 * time.Second)
	issued, done, inflight := 0, 0, 0
	var warmAt time.Time
	for done < total {
		for si := range slots {
			if issued == total || inflight >= multiTenantWindow {
				break
			}
			if slots[si].busy {
				continue
			}
			stripe := uint16(issued % 2)
			off := uint64(issued%(multiTenantSpan/64)) * 64
			var id core.ReqID
			var err error
			if issued%4 == 3 {
				id, err = th.AsyncRead(stripe, off, dests[si])
			} else {
				id, err = th.AsyncWrite(stripe, wbuf, off)
			}
			if err != nil {
				break // ring full: harvest first
			}
			slots[si] = opSlot{id: id, idx: issued, t0: time.Now(), busy: true}
			issued++
			inflight++
		}
		progressed := false
		for si := range slots {
			if !slots[si].busy || !th.Completed(slots[si].id) {
				continue
			}
			if slots[si].idx >= warmup {
				lats = append(lats, time.Since(slots[si].t0))
			}
			slots[si].busy = false
			inflight--
			done++
			progressed = true
		}
		if warmAt.IsZero() && done >= warmup {
			warmAt = time.Now()
		}
		if !progressed {
			runtime.Gosched()
			if time.Now().After(deadline) {
				return lats, warmAt, time.Now(), fmt.Errorf("tenant %d stalled at %d/%d ops", ten.ID, done, total)
			}
		}
	}
	return lats, warmAt, time.Now(), nil
}

// auditIsolation sweeps the active tenants' extents (only {0, own tag}
// permitted) and up to 32 idle tenants' extents (all-zero required),
// returning the number of violating bytes.
func auditIsolation(f *system.Fleet, activeIDs []int, tags map[int]byte, tenants int) int {
	violations := 0
	activeSet := make(map[int]bool, len(activeIDs))
	for _, id := range activeIDs {
		activeSet[id] = true
	}
	check := func(id int, tag byte, allowTag bool) {
		ten, ok := f.Tenant(id)
		if !ok {
			return
		}
		for _, e := range ten.Extents() {
			buf, err := f.Memnode(e.Memnode).Peek(e.NodeRegionID, 0, int(e.Size))
			if err != nil {
				violations++
				continue
			}
			for _, b := range buf {
				if b == 0 || (allowTag && b == tag) {
					continue
				}
				violations++
			}
		}
	}
	for _, id := range activeIDs {
		check(id, tags[id], true)
	}
	idleChecked := 0
	for id := 0; id < tenants && idleChecked < 32; id++ {
		if activeSet[id] {
			continue
		}
		check(id, 0, false)
		idleChecked++
	}
	return violations
}

// runMultiTenantRung builds one fleet rung, drives it multiTenantTrials
// times keeping the best trial, and audits isolation once at the end.
func runMultiTenantRung(tenants, opsPerTenant int) (MultiTenantPoint, error) {
	engines := tenants / 64
	if engines < 1 {
		engines = 1
	}
	setupStart := time.Now()
	cfg := fleetBenchConfig(engines)
	f, err := system.NewFleet(cfg)
	if err != nil {
		return MultiTenantPoint{}, err
	}
	defer f.Close()
	for id := 0; id < tenants; id++ {
		if _, err := f.AddTenant(id); err != nil {
			return MultiTenantPoint{}, fmt.Errorf("tenant %d: %w", id, err)
		}
	}
	setup := time.Since(setupStart)

	active := multiTenantActive
	if active > tenants {
		active = tenants
	}
	stride := tenants / active
	activeIDs := make([]int, active)
	tags := make(map[int]byte, active)
	for ai := 0; ai < active; ai++ {
		activeIDs[ai] = ai * stride
		tags[ai*stride] = multiTenantTag(ai)
	}

	// Timer-resolution keeper, as in runEngineScale: with every goroutine
	// asleep the runtime parks in the OS and short timers coarsen to ~1 ms,
	// which would dominate the serial engines' park/resume cadence.
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

	warmup := multiTenantWindow * 4
	if warmup > opsPerTenant {
		warmup = opsPerTenant
	}
	best := MultiTenantPoint{}
	for trial := 0; trial < multiTenantTrials; trial++ {
		var (
			mu       sync.Mutex
			firstErr error
			allLats  []time.Duration
			lastWarm time.Time
			lastEnd  time.Time
		)
		var wg sync.WaitGroup
		for _, id := range activeIDs {
			ten, _ := f.Tenant(id)
			wg.Add(1)
			go func(ten *system.Tenant, tag byte) {
				defer wg.Done()
				lats, warmAt, end, err := driveTenant(ten, tag, warmup, opsPerTenant)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
					return
				}
				allLats = append(allLats, lats...)
				if warmAt.After(lastWarm) {
					lastWarm = warmAt
				}
				if end.After(lastEnd) {
					lastEnd = end
				}
			}(ten, tags[id])
		}
		wg.Wait()
		if firstErr != nil {
			return MultiTenantPoint{}, firstErr
		}
		sort.Slice(allLats, func(i, j int) bool { return allLats[i] < allLats[j] })
		pct := func(q float64) float64 {
			if len(allLats) == 0 {
				return 0
			}
			return float64(allLats[int(q*float64(len(allLats)-1))]) / 1e3
		}
		wall := lastEnd.Sub(lastWarm)
		ops := active * opsPerTenant
		pt := MultiTenantPoint{
			Tenants:      tenants,
			Engines:      engines,
			Memnodes:     cfg.Memnodes,
			Active:       active,
			Ops:          ops,
			SetupMS:      float64(setup) / 1e6,
			WallMS:       float64(wall) / 1e6,
			AggOpsPerSec: float64(ops) / wall.Seconds(),
			P50Micros:    pct(0.50),
			P99Micros:    pct(0.99),
		}
		if best.Ops == 0 || pt.P99Micros < best.P99Micros {
			best = pt
		}
	}
	best.IsolationViolations = auditIsolation(f, activeIDs, tags, tenants)
	return best, nil
}

// NoisyNeighborResult is the QoS acceptance scenario: victim and aggressor
// on one engine, the aggressor capped by its token bucket.
type NoisyNeighborResult struct {
	VictimOps            int     `json:"victim_ops"`
	AggressorRatePerSec  float64 `json:"aggressor_rate_per_sec"` // configured share
	BaselineP99Micros    float64 `json:"victim_baseline_p99_us"`
	ContendedP99Micros   float64 `json:"victim_contended_p99_us"`
	P99Ratio             float64 `json:"victim_p99_ratio"` // contended / baseline
	AggressorAchievedOps float64 `json:"aggressor_achieved_ops_per_sec"`
}

// runNoisyNeighbor measures the victim's synchronous-op p99 alone, then
// again while an unthrottled-by-design aggressor loop runs under a
// token-bucket cap on the same engine.
func runNoisyNeighbor(victimOps int, aggressorRate float64) (NoisyNeighborResult, error) {
	cfg := fleetBenchConfig(1)
	cfg.Memnodes = 2
	f, err := system.NewFleet(cfg)
	if err != nil {
		return NoisyNeighborResult{}, err
	}
	defer f.Close()
	for id := 0; id < 2; id++ {
		if _, err := f.AddTenant(id); err != nil {
			return NoisyNeighborResult{}, err
		}
	}

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

	victim, _ := f.Tenant(0)
	vth, err := victim.Client.Thread(0)
	if err != nil {
		return NoisyNeighborResult{}, err
	}
	wbuf := make([]byte, 64)
	for i := range wbuf {
		wbuf[i] = 0x11
	}
	syncRun := func(ops int) ([]time.Duration, error) {
		lats := make([]time.Duration, 0, ops)
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			id, err := vth.AsyncWrite(0, wbuf, uint64(i%64)*64)
			if err != nil {
				return nil, err
			}
			if !vth.WaitAll([]core.ReqID{id}, 30*time.Second) {
				return nil, fmt.Errorf("victim op %d timed out", i)
			}
			lats = append(lats, time.Since(t0))
		}
		return lats, nil
	}
	p99 := func(lats []time.Duration) float64 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return float64(lats[int(0.99*float64(len(lats)-1))]) / 1e3
	}

	// Warm the path, then the isolated baseline.
	if _, err := syncRun(32); err != nil {
		return NoisyNeighborResult{}, err
	}
	baseLats, err := syncRun(victimOps)
	if err != nil {
		return NoisyNeighborResult{}, err
	}

	// Cap the aggressor and let it hammer with a deep window while the
	// victim repeats its run.
	if err := f.SetTenantQoS(1, spot.TenantQoS{RatePerSec: aggressorRate, Burst: 64}); err != nil {
		return NoisyNeighborResult{}, err
	}
	aggressor, _ := f.Tenant(1)
	ath, err := aggressor.Client.Thread(0)
	if err != nil {
		return NoisyNeighborResult{}, err
	}
	stop := make(chan struct{})
	var aggDone int64
	var aggWG sync.WaitGroup
	aggWG.Add(1)
	go func() {
		defer aggWG.Done()
		abuf := make([]byte, 64)
		for i := range abuf {
			abuf[i] = 0x22
		}
		var pending []core.ReqID
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			for len(pending) < 8 {
				id, err := ath.AsyncWrite(0, abuf, uint64(i%64)*64)
				if err != nil {
					break
				}
				pending = append(pending, id)
				i++
			}
			kept := pending[:0]
			for _, id := range pending {
				if ath.Completed(id) {
					aggDone++
				} else {
					kept = append(kept, id)
				}
			}
			pending = kept
			runtime.Gosched()
		}
	}()
	contStart := time.Now()
	contLats, err := syncRun(victimOps)
	contWall := time.Since(contStart)
	close(stop)
	aggWG.Wait()
	if err != nil {
		return NoisyNeighborResult{}, err
	}

	r := NoisyNeighborResult{
		VictimOps:            victimOps,
		AggressorRatePerSec:  aggressorRate,
		BaselineP99Micros:    p99(baseLats),
		ContendedP99Micros:   p99(contLats),
		AggressorAchievedOps: float64(aggDone) / contWall.Seconds(),
	}
	if r.BaselineP99Micros > 0 {
		r.P99Ratio = r.ContendedP99Micros / r.BaselineP99Micros
	}
	return r, nil
}

// MultiTenantReport is the document committed as
// BENCH_multitenant_scale.json.
type MultiTenantReport struct {
	GOMAXPROCS          int                 `json:"gomaxprocs"`
	NumCPU              int                 `json:"num_cpu"`
	HostNote            string              `json:"host_note,omitempty"`
	OpsPerTenant        int                 `json:"ops_per_tenant"`
	ActiveTenants       int                 `json:"active_tenants"`
	Window              int                 `json:"window"`
	Trials              int                 `json:"trials_per_rung"`
	Workload            string              `json:"workload"`
	IdlePolicy          string              `json:"idle_policy"`
	Points              []MultiTenantPoint  `json:"points"`
	AdjacentP99MaxRatio float64             `json:"adjacent_p99_max_ratio"`
	IsolationViolations int                 `json:"isolation_violations"`
	NoisyNeighbor       NoisyNeighborResult `json:"noisy_neighbor"`
}

// RunMultiTenantReport runs the ladder up to maxTenants (0: the full
// 64→4096 sweep) plus the noisy-neighbor scenario.
func RunMultiTenantReport(opsPerTenant, maxTenants int) (MultiTenantReport, error) {
	r := MultiTenantReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		OpsPerTenant:  opsPerTenant,
		ActiveTenants: multiTenantActive,
		Window:        multiTenantWindow,
		Trials:        multiTenantTrials,
		Workload:      "closed loop, 3:1 write:read, 64 B tag ops, 2 stripes per tenant composed across 4 memnodes",
		IdlePolicy:    "serial engines, 1 per 64 tenants; idle-queue probe backoff 2x per miss capped at 1 s; 30 s heartbeats",
	}
	if r.NumCPU == 1 {
		r.HostNote = "host exposes 1 CPU; every engine, memnode, and tenant shares it, so absolute ops/s is the single-core figure and the exhibit is the shape of the curve across rungs"
	}
	var prevP99 float64
	for _, tenants := range MultiTenantRungs {
		if maxTenants > 0 && tenants > maxTenants {
			break
		}
		pt, err := runMultiTenantRung(tenants, opsPerTenant)
		if err != nil {
			return r, fmt.Errorf("rung %d: %w", tenants, err)
		}
		r.Points = append(r.Points, pt)
		r.IsolationViolations += pt.IsolationViolations
		if prevP99 > 0 && pt.P99Micros/prevP99 > r.AdjacentP99MaxRatio {
			r.AdjacentP99MaxRatio = pt.P99Micros / prevP99
		}
		prevP99 = pt.P99Micros
	}
	// 4000 victim ops keep the contended window an order of magnitude longer
	// than burst/rate (32 ms), so the aggressor's achieved rate measures its
	// cap and not the one-off burst allowance amortized over a short run.
	nn, err := runNoisyNeighbor(4000, 2000)
	if err != nil {
		return r, fmt.Errorf("noisy neighbor: %w", err)
	}
	r.NoisyNeighbor = nn
	return r, nil
}

// WriteMultiTenantJSON runs the sweep and writes the report to path.
func WriteMultiTenantJSON(path string, opsPerTenant, maxTenants int) error {
	r, err := RunMultiTenantReport(opsPerTenant, maxTenants)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// MultiTenantScaling is the registry exhibit: the first rungs of the sweep
// plus the noisy-neighbor headline, sized for the interactive
// `cowbird-bench` run. The committed BENCH_multitenant_scale.json uses the
// full ladder through 4096.
func MultiTenantScaling() Experiment {
	e := Experiment{
		ID:     "multitenant-scale",
		Title:  "Fleet multi-tenancy: fixed active set vs registered tenants",
		XLabel: "registered tenants (16 active)",
		YLabel: "agg ops/s / us",
	}
	thr := Series{Label: "agg ops/s"}
	p99 := Series{Label: "p99 (us)"}
	ops := OpsPerThread / 8
	if ops < 100 {
		ops = 100
	}
	for _, tenants := range []int{64, 256} {
		pt, err := runMultiTenantRung(tenants, ops)
		if err != nil {
			e.Notes = append(e.Notes, fmt.Sprintf("rung %d failed: %v", tenants, err))
			continue
		}
		thr.X = append(thr.X, float64(tenants))
		thr.Y = append(thr.Y, pt.AggOpsPerSec)
		p99.X = append(p99.X, float64(tenants))
		p99.Y = append(p99.Y, pt.P99Micros)
		e.Notes = append(e.Notes, fmt.Sprintf(
			"%d tenants / %d engines: %.0f ops/s, p99 %.1f us, %d isolation violations",
			tenants, pt.Engines, pt.AggOpsPerSec, pt.P99Micros, pt.IsolationViolations))
	}
	e.Series = []Series{thr, p99}
	if nn, err := runNoisyNeighbor(400, 2000); err == nil {
		e.Notes = append(e.Notes, fmt.Sprintf(
			"noisy neighbor: victim p99 %.1f us alone, %.1f us contended (%.2fx); aggressor capped at %.0f/s achieved %.0f/s",
			nn.BaselineP99Micros, nn.ContendedP99Micros, nn.P99Ratio,
			nn.AggressorRatePerSec, nn.AggressorAchievedOps))
	} else {
		e.Notes = append(e.Notes, fmt.Sprintf("noisy neighbor failed: %v", err))
	}
	return e
}

func init() {
	registry["multitenant-scale"] = MultiTenantScaling
}
