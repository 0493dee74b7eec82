package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"cowbird"
	"cowbird/internal/devices"
	"cowbird/internal/kv"
	"cowbird/internal/system"
	"cowbird/internal/telemetry"
	"cowbird/internal/ycsb"
)

// workload is one named set of inputs. The names are fixed: later issues cite
// them. The harness touches only default configurations plus sizes,
// PoolReplicas, Engine, Cache and Telemetry, so it keeps compiling when the
// knobs ROADMAP schedules for removal are deleted.
type workload struct {
	name  string
	why   string // one line, mirrored in BENCHMARK.json
	build func(clk clock, seed int64, hub *telemetry.Telemetry) (*deployment, error)
}

var workloads = []workload{
	{"spot_read_64", "smallest message on the spot engine: per-message cost in core/rings, wire, rdma and one spot serve round; cache, kv, cluster and p4 are bypassed", buildSpotRead64},
	{"spot_rw_4k", "4 KiB 50/50 read-write on 2 pool replicas: per-byte cost (copies, ICRC, segmentation), request-data ring, write mirroring, memnode DMA", buildSpotRW4K},
	{"p4_read_64", "spot_read_64 on the P4 engine: the switch pipeline and the fabric's interposer path do the work; engine/spot changes must not move it", buildP4Read64},
	{"kv_ycsb_b", "FASTER-style kv over a Cowbird device with the client cache, YCSB-B scrambled-Zipf 0.99: kv, ycsb, devices, cache work; hits never reach the engine", buildKVYCSBB},
	{"fleet_mix_64", "system.Fleet, 64 tenants registered and 2 active, 75/25 64 B mix: the spot serial loop as a multiplexer with QoS/DRR, cluster placement, striped memnodes", buildFleetMix64},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// deployment is a built, preloaded system and the lanes that drive it.
type deployment struct {
	lanes []lane

	buildNs      int64 // constructing the deployment (System / Fleet + tenants / store)
	preloadNs    int64
	preloadBytes int64
	preloadOps   int64

	close    func()
	audit    func() (checked, bad int64, err error)
	counters func() layerCounters
	kvLane   *kvLane // set for the KV workload (cold ratio)
}

// layerCounters are cumulative read-outs of the layers' public Stats().
type layerCounters struct {
	FabricFrames, FabricBytes, FabricDropped int64

	SpotProbes, SpotEntries, SpotReads, SpotWrites   int64
	SpotBatches, SpotConflicts, SpotRed, SpotReplica int64

	P4Probes, P4Recycled, P4ReadsPaused, P4Recoveries, P4Entries int64

	CacheHits, CacheMisses, CacheBypasses, CachePfIssued, CachePfUseful int64
}

// sub returns the field-wise difference a - b.
func (a layerCounters) sub(b layerCounters) layerCounters {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() - vb.Field(i).Int())
	}
	return a
}

const (
	rawRegionSize = 16 << 20
	preloadChunk  = 4096
)

// systemCounters reads every layer a single-tenant System exposes.
func systemCounters(sys *cowbird.System) layerCounters {
	var c layerCounters
	fs := sys.Fabric.Stats()
	c.FabricFrames, c.FabricBytes, c.FabricDropped = fs.Frames, fs.Bytes, fs.Dropped
	if sys.Spot != nil {
		st := sys.Spot.Stats()
		c.SpotProbes, c.SpotEntries, c.SpotReads, c.SpotWrites = st.Probes, st.EntriesServed, st.ReadsExecuted, st.WritesExecuted
		c.SpotBatches, c.SpotConflicts, c.SpotRed, c.SpotReplica = st.ResponseBatches, st.ConflictStalls, st.RedUpdates, st.ReplicaWrites
	}
	if sys.P4 != nil {
		st := sys.P4.Stats()
		c.P4Probes, c.P4Recycled, c.P4ReadsPaused, c.P4Recoveries, c.P4Entries = st.ProbesSent, st.PacketsRecycled, st.ReadsPaused, st.Recoveries, st.EntriesFetched
	}
	if cc := sys.Client.Cache(); cc != nil {
		st := cc.Stats()
		c.CacheHits, c.CacheMisses, c.CacheBypasses, c.CachePfIssued, c.CachePfUseful = st.Hits, st.Misses, st.Bypasses, st.PrefetchIssued, st.PrefetchUseful
	}
	return c
}

// buildRaw assembles the three single-tenant raw-API workloads.
func buildRaw(clk clock, seed int64, hub *telemetry.Telemetry, engine cowbird.EngineKind, replicas, size, window, writePermille int) (*deployment, error) {
	t0 := clk.now()
	cfg := cowbird.DefaultConfig()
	cfg.Engine = engine
	cfg.RegionSize = rawRegionSize
	cfg.PoolReplicas = replicas
	cfg.Telemetry = hub
	sys, err := cowbird.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	th, err := sys.Client.Thread(0)
	if err != nil {
		sys.Close()
		return nil, err
	}
	pat := newPattern(seed)
	l := newRawLane(clk, th, seed, 0, pat, 0, 1, rawRegionSize, size, window, writePermille)
	d := &deployment{lanes: []lane{l}, close: sys.Close, buildNs: clk.now() - t0}
	d.counters = func() layerCounters { return systemCounters(sys) }

	t1 := clk.now()
	d.preloadBytes, d.preloadOps, err = preloadLane(l, preloadChunk, 8)
	d.preloadNs = clk.now() - t1
	if err != nil {
		sys.Close()
		return nil, err
	}

	// The audit reads every pool replica's memory directly (memnode.Peek):
	// replicas must be byte-identical and every block must hold the last
	// version the shadow map issued.
	d.audit = func() (checked, bad int64, err error) {
		var first []byte
		for r, pool := range sys.Pools {
			img, perr := pool.Peek(sys.Region.ID, 0, rawRegionSize)
			if perr != nil {
				return checked, bad, fmt.Errorf("peek replica %d: %w", r, perr)
			}
			if r == 0 {
				first = img
				for b := uint32(0); b < l.blocksPerRegion; b++ {
					checked++
					if !pat.check(img[int(b)*size:int(b+1)*size], 0, b, l.versions[b]) {
						bad++
					}
				}
			} else if !bytes.Equal(first, img) {
				checked++
				bad++
			}
		}
		return checked, bad, nil
	}
	return d, nil
}

func buildSpotRead64(clk clock, seed int64, hub *telemetry.Telemetry) (*deployment, error) {
	return buildRaw(clk, seed, hub, cowbird.EngineSpot, 1, 64, 16, 0)
}

func buildSpotRW4K(clk clock, seed int64, hub *telemetry.Telemetry) (*deployment, error) {
	return buildRaw(clk, seed, hub, cowbird.EngineSpot, 2, 4096, 16, 500)
}

func buildP4Read64(clk clock, seed int64, hub *telemetry.Telemetry) (*deployment, error) {
	return buildRaw(clk, seed, hub, cowbird.EngineP4, 1, 64, 16, 0)
}

// kvRegionSize holds the hybrid log: 17 MiB of load plus every update the
// measured phase appends (5 % of operations, 88 B each). Pool memory is only
// touched where the log reaches, so the headroom costs no resident memory.
const kvRegionSize = 128 << 20

func buildKVYCSBB(clk clock, seed int64, hub *telemetry.Telemetry) (*deployment, error) {
	t0 := clk.now()
	cfg := cowbird.DefaultConfig()
	cfg.Threads = 2 // the application session + the store's log flusher
	cfg.RegionSize = kvRegionSize
	cfg.Cache = cowbird.CacheConfig{Enabled: true, PrefetchDepth: 4}
	cfg.Telemetry = hub
	sys, err := cowbird.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	recordBytes := 16 + kvKeySize + kvValueSize
	store, err := kv.Open(devices.NewCowbirdDevice(sys.Client, sys.Region), kv.Config{
		IndexSize:    1 << 18,
		MemSize:      1 << 20,
		PageSize:     1 << 16,
		DiskReadSize: recordBytes,
		MaxInflight:  2 * kvMaxPending,
	})
	if err != nil {
		sys.Close()
		return nil, err
	}
	closeAll := func() { store.Close(); sys.Close() }
	gen, err := ycsb.NewGenerator(ycsb.WorkloadB(kvRecords, kvValueSize, ycsb.ScrambledZipfian), seed)
	if err != nil {
		closeAll()
		return nil, err
	}
	pat := newPattern(seed)
	l := newKVLane(clk, store.NewSession(0), gen, pat)
	d := &deployment{lanes: []lane{l}, close: closeAll, kvLane: l, buildNs: clk.now() - t0}
	d.counters = func() layerCounters { return systemCounters(sys) }

	t1 := clk.now()
	d.preloadBytes, err = l.load()
	d.preloadOps = kvRecords
	d.preloadNs = clk.now() - t1
	if err != nil {
		closeAll()
		return nil, err
	}

	// The audit re-reads a seeded sample of records through the store and
	// checks each against the shadow version map.
	d.audit = func() (checked, bad int64, err error) {
		if store.TailAddress() >= kvRegionSize {
			return 0, 1, fmt.Errorf("kv log outgrew its %d MiB device region", kvRegionSize>>20)
		}
		rng := newPRNG(seed, 0xA0D17)
		sess := l.sess
		for n := 0; n < 2000; n++ {
			idx := int64(rng.below(kvRecords))
			var p kvPending
			val, status, rerr := sess.Read(gen.Key(idx), &p)
			if rerr != nil {
				return checked, bad, rerr
			}
			deadline := time.Now().Add(opTimeout)
			for status == kv.StatusPending {
				res, cerr := sess.CompletePending(true)
				if cerr != nil {
					return checked, bad, cerr
				}
				if len(res) > 0 {
					val, status = res[0].Value, res[0].Status
				} else if time.Now().After(deadline) {
					return checked, bad + 1, fmt.Errorf("audit read of record %d never completed", idx)
				}
			}
			checked++
			if status != kv.StatusOK || len(val) != kvValueSize || !pat.check(val, kvSpace, uint32(idx), l.versions[idx]) {
				bad++
			}
		}
		return checked, bad, nil
	}
	return d, nil
}

const (
	fleetTenants = 64
	fleetActive  = 2
)

func buildFleetMix64(clk clock, seed int64, hub *telemetry.Telemetry) (*deployment, error) {
	t0 := clk.now()
	cfg := system.DefaultFleetConfig()
	cfg.Spot.Telemetry = hub // the fleet has no hub of its own; its engines take one
	f, err := system.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	tenants := make([]*system.Tenant, fleetTenants)
	for id := range tenants {
		if tenants[id], err = f.AddTenant(id); err != nil {
			f.Close()
			return nil, err
		}
	}
	d := &deployment{close: f.Close}

	// Active tenants: the lowest-numbered tenant on each engine, so every
	// engine's loop multiplexes one busy tenant among ~31 idle ones.
	pat := newPattern(seed)
	var active []*system.Tenant
	var lanes []*rawLane
	onEngine := map[int]bool{}
	for _, t := range tenants {
		if len(active) == fleetActive || onEngine[t.Engine()] {
			continue
		}
		onEngine[t.Engine()] = true
		th, terr := t.Client.Thread(0)
		if terr != nil {
			f.Close()
			return nil, terr
		}
		l := newRawLane(clk, th, seed, uint64(t.ID), pat, uint32(t.ID)*16,
			cfg.StripesPerTenant, cfg.StripeSize, 64, 8, 250)
		active = append(active, t)
		lanes = append(lanes, l)
		d.lanes = append(d.lanes, l)
	}
	if len(active) != fleetActive {
		f.Close()
		return nil, fmt.Errorf("fleet placed every tenant on %d engine(s); need %d", len(active), fleetActive)
	}
	d.buildNs = clk.now() - t0

	d.counters = func() layerCounters {
		var c layerCounters
		fs := f.Fabric.Stats()
		c.FabricFrames, c.FabricBytes, c.FabricDropped = fs.Frames, fs.Bytes, fs.Dropped
		seen := map[any]bool{}
		for id := range tenants {
			eng, ok := f.EngineOf(id)
			if !ok || seen[eng] {
				continue
			}
			seen[eng] = true
			st := eng.Stats()
			c.SpotProbes += st.Probes
			c.SpotEntries += st.EntriesServed
			c.SpotReads += st.ReadsExecuted
			c.SpotWrites += st.WritesExecuted
			c.SpotBatches += st.ResponseBatches
			c.SpotConflicts += st.ConflictStalls
			c.SpotRed += st.RedUpdates
			c.SpotReplica += st.ReplicaWrites
		}
		return c
	}

	t1 := clk.now()
	for _, l := range lanes {
		b, o, perr := preloadLane(l, preloadChunk, 2)
		d.preloadBytes += b
		d.preloadOps += o
		if perr != nil {
			f.Close()
			return nil, perr
		}
	}
	d.preloadNs = clk.now() - t1

	// Per-tenant extent audit: an active tenant's physical extents must hold
	// exactly what its shadow map says, and an idle tenant's must be untouched
	// — a write routed to the wrong stripe or tenant fails here even if every
	// read looked right.
	d.audit = func() (checked, bad int64, err error) {
		isActive := map[int]*rawLane{}
		for i, t := range active {
			isActive[t.ID] = lanes[i]
		}
		for _, t := range tenants {
			l := isActive[t.ID]
			for _, e := range t.Extents() {
				img, perr := f.Memnode(e.Memnode).Peek(e.NodeRegionID, 0, int(e.Size))
				if perr != nil {
					return checked, bad, fmt.Errorf("peek tenant %d stripe %d: %w", t.ID, e.Stripe, perr)
				}
				if l == nil {
					checked++
					if len(bytes.Trim(img, "\x00")) != 0 {
						bad++
					}
					continue
				}
				for b := uint32(0); b < l.blocksPerRegion; b++ {
					checked++
					g := uint32(e.Stripe)*l.blocksPerRegion + b
					if !pat.check(img[b*64:(b+1)*64], l.space+uint32(e.Stripe), b, l.versions[g]) {
						bad++
					}
				}
			}
		}
		return checked, bad, nil
	}
	return d, nil
}
