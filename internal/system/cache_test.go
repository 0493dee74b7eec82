package system

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cowbird/internal/cache"
	"cowbird/internal/chaos"
	"cowbird/internal/telemetry"
)

// testCacheConfig is a small tier that fits the default deployment and, with
// only 64 lines, churns through CLOCK eviction under any real workload — the
// regime where the fill-admission and generation guards earn their keep.
func testCacheConfig() cache.Config {
	return cache.Config{
		Enabled:  true,
		LineSize: 256,
		Lines:    64,
		Shards:   4,
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	s := startSystem(t, nil)
	if s.Client.Cache() != nil {
		t.Fatal("default deployment must not construct a cache")
	}
}

// TestCacheReadThroughAndHit: the first read of a line goes to the fabric
// and fills; the second is served locally with identical bytes.
func TestCacheReadThroughAndHit(t *testing.T) {
	s := startSystem(t, func(c *Config) { c.Cache = testCacheConfig() })
	cc := s.Client.Cache()
	if cc == nil {
		t.Fatal("cache not constructed")
	}
	th, _ := s.Client.Thread(0)

	data := bytes.Repeat([]byte{0x5A}, 256)
	if err := th.WriteSync(0, data, 4096, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The write-through already installed the line, so even the first read
	// may hit; evict it via InvalidateAll to measure the read-through path.
	cc.InvalidateAll()

	dest := make([]byte, 256)
	if err := th.ReadSync(0, 4096, dest, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("read-through returned wrong bytes")
	}
	st := cc.Stats()
	if st.Misses == 0 {
		t.Fatal("first read after invalidation must miss")
	}
	for i := range dest {
		dest[i] = 0
	}
	if err := th.ReadSync(0, 4096, dest, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("cached read returned wrong bytes")
	}
	if got := cc.Stats(); got.Hits <= st.Hits {
		t.Fatalf("second read must hit (hits %d -> %d)", st.Hits, got.Hits)
	}
}

// TestCacheReadYourWrites: a write immediately followed by a read returns
// the new bytes — the write-through image, not a stale fill.
func TestCacheReadYourWrites(t *testing.T) {
	s := startSystem(t, func(c *Config) { c.Cache = testCacheConfig() })
	th, _ := s.Client.Thread(0)

	old := bytes.Repeat([]byte{0x11}, 256)
	if err := th.WriteSync(0, old, 8192, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	dest := make([]byte, 256)
	if err := th.ReadSync(0, 8192, dest, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		fresh := bytes.Repeat([]byte{byte(0x20 + i)}, 256)
		if err := th.WriteSync(0, fresh, 8192, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := th.ReadSync(0, 8192, dest, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dest, fresh) {
			t.Fatalf("round %d: read after write returned stale bytes %#x", i, dest[0])
		}
	}
}

// TestCacheSharedAcrossThreadsRace hammers one shared cache from four
// client threads under -race: each thread owns 16 slots it writes with tags
// from its own alphabet and re-reads (read-your-writes must hold — ring
// FIFO plus write-through plus the fill-admission window guarantee it even
// with foreign fills racing), while also reading foreign slots, whose bytes
// must always belong to the owner's alphabet (or be the initial zero) —
// never a mix-up from a misdirected fill or a resurrected pre-write value.
func TestCacheSharedAcrossThreadsRace(t *testing.T) {
	const (
		threads      = 4
		slotsPerThr  = 16
		slotSize     = 256
		opsPerThread = 200
	)
	s := startSystem(t, func(c *Config) {
		c.Threads = threads
		c.Cache = testCacheConfig()
	})
	tag := func(ti, seq int) byte { return byte((ti+1)<<4 | seq&0xF) }
	owner := func(slot int) int { return slot / slotsPerThr }

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th, err := s.Client.Thread(ti)
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(ti) + 1))
			buf := make([]byte, slotSize)
			dest := make([]byte, slotSize)
			lastTag := make(map[int]byte, slotsPerThr)
			for op := 0; op < opsPerThread; op++ {
				own := ti*slotsPerThr + rng.Intn(slotsPerThr)
				wr := tag(ti, op)
				for j := range buf {
					buf[j] = wr
				}
				if err := th.WriteSync(0, buf, uint64(own*slotSize), 10*time.Second); err != nil {
					errs <- fmt.Errorf("thread %d write: %w", ti, err)
					return
				}
				lastTag[own] = wr
				if err := th.ReadSync(0, uint64(own*slotSize), dest, 10*time.Second); err != nil {
					errs <- fmt.Errorf("thread %d own read: %w", ti, err)
					return
				}
				for j, b := range dest {
					if b != lastTag[own] {
						errs <- fmt.Errorf("thread %d slot %d byte %d: got %#x, want own last write %#x", ti, own, j, b, lastTag[own])
						return
					}
				}
				foreign := rng.Intn(threads * slotsPerThr)
				if err := th.ReadSync(0, uint64(foreign*slotSize), dest, 10*time.Second); err != nil {
					errs <- fmt.Errorf("thread %d foreign read: %w", ti, err)
					return
				}
				fo := owner(foreign)
				for j, b := range dest {
					if b != 0 && int(b>>4) != fo+1 {
						errs <- fmt.Errorf("thread %d foreign slot %d byte %d: got %#x, not in owner %d's alphabet", ti, foreign, j, b, fo)
						return
					}
				}
			}
			errs <- nil
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Client.Cache().Stats(); st.Hits == 0 {
		t.Fatal("shared-cache hammer never hit; cache not exercised")
	}
}

// TestCacheChaosPoolFailover replays the pool-crash chaos schedule against a
// two-replica deployment with the cache forced on (tiny, so eviction churn is
// constant): the invariant workload — every acked write readable, no
// completion lost or duplicated — must hold through transparent failover
// exactly as it does without the cache, while a second thread's read loop
// keeps pulling pool bytes into the shared cache to race the writes.
func TestCacheChaosPoolFailover(t *testing.T) {
	const seed = 23
	s := startSystem(t, func(c *Config) {
		c.Threads = 2
		c.PoolReplicas = 2
		c.PoolRetransmitTimeout = 250 * time.Microsecond
		c.PoolMaxRetries = 2
		c.Spot.PoolHeartbeatInterval = 200 * time.Microsecond
		c.Cache = testCacheConfig()
	})
	sched := chaos.Schedule{Seed: seed, Events: []chaos.Event{
		{At: 3 * time.Millisecond, Kind: chaos.KindPoolCrash, Pool: 0},
	}}
	inj := chaos.NewInjector(chaos.Target{Fabric: s.Fabric, Pools: s.Pools}, seed)
	defer inj.Close()
	injDone := make(chan struct{})
	go func() { inj.Run(sched); close(injDone) }()

	// Concurrent reader: same slots the workload writes, so its fills race
	// the workload's write-throughs on the shared cache.
	wcfg := chaos.DefaultWorkloadConfig()
	stopReader := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		th1, err := s.Client.Thread(1)
		if err != nil {
			readerErr <- err
			return
		}
		rng := rand.New(rand.NewSource(seed + 1))
		dest := make([]byte, wcfg.SlotSize)
		for {
			select {
			case <-stopReader:
				readerErr <- nil
				return
			default:
			}
			off := uint64(rng.Intn(wcfg.Slots) * wcfg.SlotSize)
			if err := th1.ReadSync(0, off, dest, 10*time.Second); err != nil {
				readerErr <- fmt.Errorf("reader: %w", err)
				return
			}
		}
	}()

	th0, _ := s.Client.Thread(0)
	if err := chaos.RunWorkload(th0, seed, wcfg); err != nil {
		t.Fatal(err)
	}
	close(stopReader)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	<-injDone
	// During the workload itself hits are rare by design: half the ops are
	// writes and the async window keeps some in flight almost continuously,
	// which closes fill admission. Verify the lookups happened, and that the
	// tier still fills and serves normally now that the fabric is quiet —
	// on the surviving replica.
	if st := s.Client.Cache().Stats(); st.Hits+st.Misses == 0 {
		t.Fatal("chaos workload never consulted the cache")
	}
	dest := make([]byte, wcfg.SlotSize)
	if err := th0.ReadSync(0, 0, dest, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	before := s.Client.Cache().Stats().Hits
	if err := th0.ReadSync(0, 0, dest, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Client.Cache().Stats().Hits <= before {
		t.Fatal("post-failover refill did not serve a hit")
	}
}

// TestCacheHitPathAllocFree gates the tentpole's zero-allocation claim on
// the real Thread API, not just the cache package: a warmed AsyncRead +
// Completed round trip must not allocate.
func TestCacheHitPathAllocFree(t *testing.T) {
	s := startSystem(t, func(c *Config) { c.Cache = testCacheConfig() })
	th, _ := s.Client.Thread(0)

	data := bytes.Repeat([]byte{0x77}, 256)
	if err := th.WriteSync(0, data, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	dest := make([]byte, 256)
	if err := th.ReadSync(0, 0, dest, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		id, err := th.AsyncRead(0, 0, dest)
		if err != nil {
			t.Fatal(err)
		}
		if !id.LocalHit() || !th.Completed(id) {
			t.Fatal("warmed read must be a complete local hit")
		}
	})
	if avg != 0 {
		t.Fatalf("cache hit path allocates %v allocs/op, want 0", avg)
	}
}

// TestCacheMetricsExported: with a telemetry hub installed, the tier's
// gauges land in the shared registry (and from there in /metrics, /vars,
// and cowbird-dump -live, which all render the same snapshot).
func TestCacheMetricsExported(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	s := startSystem(t, func(c *Config) {
		c.Cache = testCacheConfig()
		c.Telemetry = tel
	})
	th, _ := s.Client.Thread(0)
	data := bytes.Repeat([]byte{1}, 256)
	if err := th.WriteSync(0, data, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	dest := make([]byte, 256)
	for i := 0; i < 3; i++ {
		if err := th.ReadSync(0, 0, dest, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	snap := tel.Reg.Snapshot()
	for _, g := range []string{
		"cowbird_cache_hits", "cowbird_cache_misses", "cowbird_cache_hit_rate_permille",
		"cowbird_cache_resident_bytes", "cowbird_cache_capacity_bytes",
		"cowbird_cache_prefetch_issued", "cowbird_cache_prefetch_accuracy_permille",
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Fatalf("gauge %s not exported (have %v)", g, snap.Gauges)
		}
	}
	if snap.Gauges["cowbird_cache_hits"] == 0 {
		t.Fatal("hit gauge stayed zero after warmed reads")
	}
	if snap.Gauges["cowbird_cache_capacity_bytes"] != 64*256 {
		t.Fatalf("capacity gauge = %d, want %d", snap.Gauges["cowbird_cache_capacity_bytes"], 64*256)
	}
	// The hit-latency histogram is sampled 1-in-N; force-sampled hub configs
	// are exercised in the telemetry package, here just assert registration.
	if _, ok := snap.Histograms["cowbird_cache_hit_ns"]; !ok {
		t.Fatal("cache hit-latency histogram not registered")
	}
}
