package devices

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/kv"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/system"
	"cowbird/internal/wire"
)

func kvConfig() kv.Config {
	return kv.Config{
		IndexSize:    1 << 10,
		MemSize:      1 << 16,
		PageSize:     1 << 12,
		DiskReadSize: 256,
		MaxInflight:  64,
	}
}

// driveStore writes enough records to spill, then reads hot and cold keys
// back and checks their contents.
func driveStore(t *testing.T, st *kv.Store) {
	t.Helper()
	s := st.NewSession(0)
	const n = 1500
	val := make([]byte, 100)
	for i := 0; i < n; i++ {
		copy(val, fmt.Sprintf("record-%04d", i))
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatalf("upsert %d: %v", i, err)
		}
	}
	check := func(i int) {
		t.Helper()
		key := []byte(fmt.Sprintf("key-%04d", i))
		want := fmt.Sprintf("record-%04d", i)
		got, status, err := s.Read(key, i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if status == kv.StatusPending {
			deadline := time.Now().Add(30 * time.Second)
			for {
				res, err := s.CompletePending(true)
				if err != nil {
					t.Fatalf("pending %d: %v", i, err)
				}
				done := false
				for _, r := range res {
					if bytes.Equal(r.Key, key) {
						got, status, done = r.Value, r.Status, true
					}
				}
				if done {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("cold read %d never completed", i)
				}
			}
		}
		if status != kv.StatusOK || string(got[:len(want)]) != want {
			t.Fatalf("key %d: %v %q", i, status, got[:16])
		}
	}
	for _, i := range []int{0, 1, 7, 100, 500, n - 2, n - 1} {
		check(i)
	}
	if st.HeadAddress() == 0 {
		t.Fatal("unexpected zero head")
	}
}

func TestFasterOverSSD(t *testing.T) {
	dev := NewSSDDevice(1<<24, 30*time.Microsecond, 750e6)
	st, err := kv.Open(dev, kvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	driveStore(t, st)
}

// rdmaPair builds a compute NIC and a memory pool with a registered region.
func rdmaPair(t *testing.T) (*rdma.NIC, *memnode.Node, core.RegionInfo) {
	t.Helper()
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	local := rdma.NewNIC(f, wire.MAC{2, 1, 0, 0, 0, 1}, wire.IPv4Addr{10, 1, 0, 1}, rdma.DefaultConfig())
	t.Cleanup(local.Close)
	pool := memnode.New(f, wire.MAC{2, 1, 0, 0, 0, 2}, wire.IPv4Addr{10, 1, 0, 2}, rdma.DefaultConfig())
	t.Cleanup(pool.Close)
	region, err := pool.AllocRegion(0, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	return local, pool, region
}

func TestFasterOverRDMASync(t *testing.T) {
	local, pool, region := rdmaPair(t)
	dev := NewRDMADevice(local, pool.NIC(), region, ModeSync, 1<<13)
	st, err := kv.Open(dev, kvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	driveStore(t, st)
}

func TestFasterOverRDMAAsync(t *testing.T) {
	local, pool, region := rdmaPair(t)
	dev := NewRDMADevice(local, pool.NIC(), region, ModeAsync, 1<<13)
	st, err := kv.Open(dev, kvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	driveStore(t, st)
}

func cowbirdSystem(t *testing.T, kind system.EngineKind) *system.System {
	t.Helper()
	cfg := system.DefaultConfig()
	cfg.Engine = kind
	cfg.Threads = 2 // one app session + the flusher session
	cfg.Layout = rings.Layout{MetaEntries: 256, ReqDataBytes: 128 << 10, RespDataBytes: 128 << 10}
	cfg.RegionSize = 1 << 24
	cfg.Spot.ProbeInterval = 2 * time.Microsecond
	cfg.P4.ProbeInterval = 2 * time.Microsecond
	s, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestFasterOverCowbirdSpot is the paper's §7 case study, end to end: the
// FASTER-style store's cold log lives in the memory pool, and every
// transfer is executed by the Cowbird-Spot engine — the compute node never
// posts an RDMA verb.
func TestFasterOverCowbirdSpot(t *testing.T) {
	sys := cowbirdSystem(t, system.EngineSpot)
	dev := NewCowbirdDevice(sys.Client, sys.Region)
	st, err := kv.Open(dev, kvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	driveStore(t, st)
}

// TestColdReadOverCowbirdAllocFree is the kv read path's allocation gate on
// the device the benchmark runs it over: a cold read — issue, the Spot
// engine's round, CompletePending — allocates nothing once the session's
// recycled buffers and the device session's token slice are sized.
func TestColdReadOverCowbirdAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI lane")
	}
	sys := cowbirdSystem(t, system.EngineSpot)
	st, err := kv.Open(NewCowbirdDevice(sys.Client, sys.Region), kvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.NewSession(0)
	val := make([]byte, 100)
	for i := 0; i < 1500; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("key-0000")
	coldRead := func() {
		if _, status, err := s.Read(key, nil); err != nil || status != kv.StatusPending {
			t.Fatalf("read: %v %v", status, err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			res, err := s.CompletePending(true)
			if err != nil || time.Now().After(deadline) {
				t.Fatalf("cold read never completed: %v", err)
			}
			if len(res) == 1 && res[0].Status == kv.StatusOK {
				return
			}
		}
	}
	for i := 0; i < 64; i++ {
		coldRead()
	}
	if allocs := testing.AllocsPerRun(200, coldRead); allocs != 0 {
		t.Fatalf("cold read over the Cowbird device allocates %v allocs/op, want 0", allocs)
	}
}

// TestFasterOverCowbirdP4 runs the same case study through the switch
// data-plane engine.
func TestFasterOverCowbirdP4(t *testing.T) {
	sys := cowbirdSystem(t, system.EngineP4)
	dev := NewCowbirdDevice(sys.Client, sys.Region)
	st, err := kv.Open(dev, kvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	driveStore(t, st)
}

func TestSSDSerializesIOs(t *testing.T) {
	dev := NewSSDDevice(1<<20, 200*time.Microsecond, 750e6)
	s := dev.Session(0)
	start := time.Now()
	var toks []kv.Token
	for i := 0; i < 5; i++ {
		tok, err := s.WriteAsync(uint64(i)*1024, make([]byte, 1024))
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	got := 0
	for got < 5 {
		got += len(s.Poll(8, 100*time.Millisecond))
	}
	elapsed := time.Since(start)
	// Five serialized I/Os of 200 µs latency each cannot finish in under
	// ~1 ms; parallel completion would take ~200 µs.
	if elapsed < 900*time.Microsecond {
		t.Fatalf("SSD completed 5 I/Os in %v; channel not serialized", elapsed)
	}
}

func TestSSDBounds(t *testing.T) {
	dev := NewSSDDevice(1024, time.Microsecond, 1e9)
	s := dev.Session(0)
	if _, err := s.ReadAsync(1000, make([]byte, 100)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
}

func TestRDMADeviceBounds(t *testing.T) {
	local, pool, region := rdmaPair(t)
	dev := NewRDMADevice(local, pool.NIC(), region, ModeAsync, 4096)
	s := dev.Session(0)
	if _, err := s.ReadAsync(region.Size-10, make([]byte, 100)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if _, err := s.ReadAsync(0, make([]byte, 8192)); err == nil {
		t.Fatal("oversized I/O accepted")
	}
}

// TestRDMADeviceReadAllocFree is the async one-sided baseline's allocation
// gate, so a baseline lane measures the verbs and not the garbage
// collector: once the session's slices are sized, a read — post, poll
// until its token comes back — allocates nothing.
func TestRDMADeviceReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race CI lane")
	}
	local, pool, region := rdmaPair(t)
	s := NewRDMADevice(local, pool.NIC(), region, ModeAsync, 4096).Session(0)
	dst := make([]byte, 64)
	read := func() {
		tok, err := s.ReadAsync(4096, dst)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; {
			for _, d := range s.Poll(8, time.Millisecond) {
				if d == tok {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("read never completed")
			}
		}
	}
	for i := 0; i < 64; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("async RDMA device read allocates %v allocs/op, want 0", allocs)
	}
}

func TestRDMADeviceSlotReuse(t *testing.T) {
	local, pool, region := rdmaPair(t)
	dev := NewRDMADevice(local, pool.NIC(), region, ModeAsync, 4096)
	s := dev.Session(0)
	// Push far more I/Os than slots; the session must recycle staging.
	want := make([]byte, 512)
	for i := range want {
		want[i] = byte(i)
	}
	if tok, err := s.WriteAsync(0, want); err != nil || tok == 0 {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.WriteAsync(uint64(i)*512, want); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	dst := make([]byte, 512)
	tok, err := s.ReadAsync(0, dst)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := s.Poll(64, 50*time.Millisecond)
		hit := false
		for _, d := range done {
			if d == tok {
				hit = true
			}
		}
		if hit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("read never completed")
		}
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("read data mismatch after slot reuse")
	}
}
