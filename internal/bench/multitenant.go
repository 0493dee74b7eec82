package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/driver"
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
// cowbird-bench -sweep tenants.

// MultiTenantRungs are the registered-tenant counts of the full sweep. The
// CI smoke truncates with -max.
var MultiTenantRungs = []int{64, 256, 1024, 4096}

const (
	// multiTenantActive is the fixed active set: how many registered
	// tenants carry traffic at every rung.
	multiTenantActive = 16
	// multiTenantWindow is each active tenant's closed-loop depth.
	multiTenantWindow = 4
	// multiTenantTrials drives each rung's fleet this many times (same
	// deployment, fresh measurement) and keeps the lowest-p99 trial.
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

// tenantLoop is one active tenant's closed loop on its thread 0: window
// multiTenantWindow, 3:1 write:read, 64 B tag payloads, stripes alternated
// so the composed address space (distinct memnodes per stripe) is on the
// measured path.
func tenantLoop(ten *system.Tenant, tag byte, warmup, ops int) (*driver.Loop, error) {
	th, err := ten.Client.Thread(0)
	if err != nil {
		return nil, err
	}
	wbuf := make([]byte, 64)
	for i := range wbuf {
		wbuf[i] = tag
	}
	return &driver.Loop{
		Thread: th, Who: fmt.Sprintf("tenant %d", ten.ID),
		Window: multiTenantWindow, Warmup: warmup, Ops: ops, DestBytes: 64,
		Issue: func(i int, dest []byte) (core.ReqID, error) {
			stripe := uint16(i % 2)
			off := uint64(i%(multiTenantSpan/64)) * 64
			if i%4 == 3 {
				return th.AsyncRead(stripe, off, dest)
			}
			return th.AsyncWrite(stripe, wbuf, off)
		},
	}, nil
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

	defer keepTimersFine()()

	warmup := min(multiTenantWindow*4, opsPerTenant)
	best, err := bestOf(multiTenantTrials, func(int) (MultiTenantPoint, error) {
		loops := make([]*driver.Loop, len(activeIDs))
		times := make([]*timing, len(activeIDs))
		for i, id := range activeIDs {
			ten, _ := f.Tenant(id)
			l, err := tenantLoop(ten, tags[id], warmup, opsPerTenant)
			if err != nil {
				return MultiTenantPoint{}, err
			}
			loops[i], times[i] = l, timed(l)
		}
		if err := driver.RunAll(loops, nil); err != nil {
			return MultiTenantPoint{}, err
		}
		sum := summarize(times...)
		return MultiTenantPoint{
			Tenants:      tenants,
			Engines:      engines,
			Memnodes:     cfg.Memnodes,
			Active:       active,
			Ops:          sum.ops,
			SetupMS:      float64(setup) / 1e6,
			WallMS:       float64(sum.wall) / 1e6,
			AggOpsPerSec: sum.opsPerSec,
			P50Micros:    sum.p50,
			P99Micros:    sum.p99,
		}, nil
	}, func(a, b MultiTenantPoint) bool { return a.P99Micros < b.P99Micros })
	if err != nil {
		return MultiTenantPoint{}, err
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

// noisyNeighborLoop is a tenant's closed loop of 64 B writes over one 4 KiB
// strip: window 1 for the synchronous victim, deeper for the aggressor.
func noisyNeighborLoop(ten *system.Tenant, who string, fill byte, window int) (*driver.Loop, error) {
	th, err := ten.Client.Thread(0)
	if err != nil {
		return nil, err
	}
	wbuf := make([]byte, 64)
	for i := range wbuf {
		wbuf[i] = fill
	}
	return &driver.Loop{
		Thread: th, Who: who, Window: window,
		Issue: func(i int, _ []byte) (core.ReqID, error) {
			return th.AsyncWrite(0, wbuf, uint64(i%64)*64)
		},
	}, nil
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
	defer keepTimersFine()()

	// Warm the path, then the isolated baseline.
	victimTenant, _ := f.Tenant(0)
	victim, err := noisyNeighborLoop(victimTenant, "victim", 0x11, 1)
	if err != nil {
		return NoisyNeighborResult{}, err
	}
	victim.Warmup, victim.Ops = 32, victimOps
	victimTimes := timed(victim)
	if err := victim.Run(nil); err != nil {
		return NoisyNeighborResult{}, err
	}
	baseline := summarize(victimTimes)

	// Cap the aggressor and let it hammer with a deep window while the
	// victim repeats its run. The aggressor goes round in burst-sized laps
	// of the same loop until told to stop, and its achieved rate is taken
	// over its own laps.
	const aggressorBurst = 64
	if err := f.SetTenantQoS(1, spot.TenantQoS{RatePerSec: aggressorRate, Burst: aggressorBurst}); err != nil {
		return NoisyNeighborResult{}, err
	}
	aggressorTenant, _ := f.Tenant(1)
	aggressor, err := noisyNeighborLoop(aggressorTenant, "aggressor", 0x22, 8)
	if err != nil {
		return NoisyNeighborResult{}, err
	}
	aggressor.Ops = aggressorBurst
	var (
		stop    = make(chan struct{})
		aggWG   sync.WaitGroup
		aggDone int
		aggWall time.Duration
		aggErr  error
	)
	aggWG.Add(1)
	go func() {
		defer aggWG.Done()
		start := time.Now()
		for {
			select {
			case <-stop:
				aggWall = time.Since(start)
				return
			default:
			}
			if aggErr = aggressor.Run(nil); aggErr != nil {
				return
			}
			aggDone += aggressor.Ops
		}
	}()
	victim.Warmup = 0
	err = victim.Run(nil)
	close(stop)
	aggWG.Wait()
	if err = errors.Join(err, aggErr); err != nil {
		return NoisyNeighborResult{}, err
	}
	contended := summarize(victimTimes)

	r := NoisyNeighborResult{
		VictimOps:           victimOps,
		AggressorRatePerSec: aggressorRate,
		BaselineP99Micros:   baseline.p99,
		ContendedP99Micros:  contended.p99,
	}
	if aggWall > 0 {
		r.AggressorAchievedOps = float64(aggDone) / aggWall.Seconds()
	}
	if r.BaselineP99Micros > 0 {
		r.P99Ratio = r.ContendedP99Micros / r.BaselineP99Micros
	}
	return r, nil
}

// MultiTenantReport is the document committed as
// BENCH_multitenant_scale.json.
type MultiTenantReport struct {
	hostEnv
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

// runMultiTenantReport runs the ladder up to maxTenants (0: the full
// 64→4096 sweep) plus the noisy-neighbor scenario.
func runMultiTenantReport(opsPerTenant, maxTenants int) (MultiTenantReport, error) {
	r := MultiTenantReport{
		hostEnv:       currentEnv(),
		OpsPerTenant:  opsPerTenant,
		ActiveTenants: multiTenantActive,
		Window:        multiTenantWindow,
		Trials:        multiTenantTrials,
		Workload:      "closed loop, 3:1 write:read, 64 B tag ops, 2 stripes per tenant composed across 4 memnodes",
		IdlePolicy:    "one shared worker per engine, 1 engine per 64 tenants; slots start cold, stay hot for 128 yield-paced misses after serving; cold probe backoff 2x per miss capped at 1 s; 30 s heartbeats",
	}
	if r.NumCPU == 1 {
		r.HostNote = "host exposes 1 CPU; every engine, memnode, and tenant shares it, so absolute ops/s is the single-core figure and the exhibit is the shape of the curve across rungs"
	}
	var p99 []float64
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
		p99 = append(p99, pt.P99Micros)
	}
	r.AdjacentP99MaxRatio = maxAdjacentRatio(p99)
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

// Check is the fleet gate: p99 may not more than double between adjacent
// rungs, the physical audit may not find one foreign byte in any tenant
// extent, and the QoS scenario must hold the victim's p99 within 2x its
// isolated baseline with the aggressor inside 1.5x its configured rate.
func (r MultiTenantReport) Check() error {
	p99 := make([]float64, len(r.Points))
	violations := 0
	for i, p := range r.Points {
		p99[i] = p.P99Micros
		violations += p.IsolationViolations
	}
	nn := r.NoisyNeighbor
	switch ratio := maxAdjacentRatio(p99); {
	case ratio > 2:
		return fmt.Errorf("multi-tenant: p99 grew %.2fx between adjacent rungs %v, limit 2x", ratio, p99)
	case violations != 0:
		return fmt.Errorf("multi-tenant: %d isolation violations", violations)
	case nn.P99Ratio > 2:
		return fmt.Errorf("multi-tenant: noisy neighbor moved victim p99 %.2fx (%.1f -> %.1f us), limit 2x",
			nn.P99Ratio, nn.BaselineP99Micros, nn.ContendedP99Micros)
	case nn.AggressorAchievedOps > 1.5*nn.AggressorRatePerSec:
		return fmt.Errorf("multi-tenant: aggressor achieved %.0f ops/s against a %.0f/s cap, limit 1.5x",
			nn.AggressorAchievedOps, nn.AggressorRatePerSec)
	}
	return nil
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
	r, err := runMultiTenantReport(max(OpsPerThread/8, 100), 256)
	if err != nil {
		e.Notes = append(e.Notes, fmt.Sprintf("sweep failed: %v", err))
	}
	thr, p99 := Series{Label: "agg ops/s"}, Series{Label: "p99 (us)"}
	for _, pt := range r.Points {
		thr.X, thr.Y = append(thr.X, float64(pt.Tenants)), append(thr.Y, pt.AggOpsPerSec)
		p99.X, p99.Y = append(p99.X, float64(pt.Tenants)), append(p99.Y, pt.P99Micros)
		e.Notes = append(e.Notes, fmt.Sprintf(
			"%d tenants / %d engines: %.0f ops/s, p99 %.1f us, %d isolation violations",
			pt.Tenants, pt.Engines, pt.AggOpsPerSec, pt.P99Micros, pt.IsolationViolations))
	}
	e.Series = []Series{thr, p99}
	if nn := r.NoisyNeighbor; nn.VictimOps > 0 {
		e.Notes = append(e.Notes, fmt.Sprintf(
			"noisy neighbor: victim p99 %.1f us alone, %.1f us contended (%.2fx); aggressor capped at %.0f/s achieved %.0f/s",
			nn.BaselineP99Micros, nn.ContendedP99Micros, nn.P99Ratio,
			nn.AggressorRatePerSec, nn.AggressorAchievedOps))
	}
	return e
}

func init() {
	registry["multitenant-scale"] = MultiTenantScaling
}
