package p4

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/memnode"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/wire"
)

// TestComputeResourcesMatchesTable5 pins the derived row to the paper's
// Table 5 plus the deviations EXPERIMENTS.md's Table 5 section states: the
// Phase IV coalescing register (+1 sALU, +1 VLIW, +2 KB) and the recovery
// state Process keeps since PR 22 (3 sALUs more than the one last_progress
// register declared before, +320 KB of per-exchange issue times).
func TestComputeResourcesMatchesTable5(t *testing.T) {
	r := ComputeResources()
	if r.PHVBits != 1085 {
		t.Errorf("PHV = %d b, want 1085", r.PHVBits)
	}
	if r.Stages != 12 {
		t.Errorf("stages = %d, want 12", r.Stages)
	}
	if r.VLIWInstr != 38+1 {
		t.Errorf("VLIW = %d, want 39 (paper 38 + Phase IV coalescing)", r.VLIWInstr)
	}
	if r.SALUs != 11+1+3 {
		t.Errorf("sALU = %d, want 15 (paper 11 + phase4_open + recovery state)", r.SALUs)
	}
	if r.SRAMKB < 1700 || r.SRAMKB > 1780 {
		t.Errorf("SRAM = %.0f KB, want ~1736 (paper 1424 + the deviations)", r.SRAMKB)
	}
	if r.TCAMKB < 1.0 || r.TCAMKB > 1.5 {
		t.Errorf("TCAM = %.2f KB, want ~1.28", r.TCAMKB)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestPipelineDeclarationSane(t *testing.T) {
	stages := Pipeline()
	if len(stages) != 12 {
		t.Fatalf("%d stages", len(stages))
	}
	seen := map[string]bool{}
	for _, s := range stages {
		if s.Name == "" || seen[s.Name] {
			t.Fatalf("bad/duplicate stage name %q", s.Name)
		}
		seen[s.Name] = true
		if s.VLIW <= 0 {
			t.Errorf("stage %s has no actions", s.Name)
		}
		for _, tb := range s.Tables {
			if tb.Entries <= 0 || tb.KeyBits <= 0 {
				t.Errorf("table %s malformed", tb.Name)
			}
		}
		for _, rg := range s.Registers {
			if rg.Entries <= 0 || rg.WidthBits <= 0 {
				t.Errorf("register %s malformed", rg.Name)
			}
		}
	}
}

// instanceEnv is one compute/pool pair wired to a shared switch.
type instanceEnv struct {
	client *core.Client
	pool   *memnode.Node
	region core.RegionInfo
}

// testConfig is the engine configuration the wired-up tests start from.
func testConfig() Config {
	return Config{
		ProbeInterval: 2 * time.Microsecond,
		Timeout:       50 * time.Millisecond,
		MTU:           1024,
		DataTOS:       8,
	}
}

// newMultiInstance wires n instances onto one switch engine (§5.4).
func newMultiInstance(t *testing.T, n int) (*Engine, []*instanceEnv) {
	return newMultiInstanceCfg(t, n, testConfig())
}

// newMultiInstanceCfg is newMultiInstance with the engine configuration given.
func newMultiInstanceCfg(t *testing.T, n int, cfg Config) (*Engine, []*instanceEnv) {
	t.Helper()
	fabric := rdma.NewFabric()
	t.Cleanup(fabric.Close)
	eng := New(fabric, wire.MAC{2, 0xEE, 0, 0, 0, 1}, wire.IPv4Addr{10, 8, 0, 1}, cfg)
	fabric.SetInterposer(eng)

	var envs []*instanceEnv
	for i := 0; i < n; i++ {
		compute := rdma.NewNIC(fabric,
			wire.MAC{2, 0xEE, 0, 1, 0, byte(i)}, wire.IPv4Addr{10, 8, 1, byte(i)},
			rdma.DefaultConfig())
		t.Cleanup(compute.Close)
		pool := memnode.New(fabric,
			wire.MAC{2, 0xEE, 0, 2, 0, byte(i)}, wire.IPv4Addr{10, 8, 2, byte(i)},
			rdma.DefaultConfig())
		t.Cleanup(pool.Close)
		client, err := core.NewClient(compute, core.ClientConfig{
			Threads: 1,
			Layout:  rings.Layout{MetaEntries: 64, ReqDataBytes: 32 << 10, RespDataBytes: 32 << 10},
			BaseVA:  0x10_0000,
		})
		if err != nil {
			t.Fatal(err)
		}
		region, err := pool.AllocRegion(0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		client.RegisterRegion(region)

		cQP := compute.CreateQP(rdma.NewCQ(), rdma.NewCQ(), 2000)
		mQP := pool.NIC().CreateQP(rdma.NewCQ(), rdma.NewCQ(), 4000)
		sw, err := eng.Setup(client.Describe(i), Endpoints{
			Compute: Endpoint{MAC: compute.MAC(), IP: compute.IP(), QPN: cQP.QPN(), FirstPSN: 2000, ResetEPSN: cQP.ResetExpectedPSN},
			Pool:    Endpoint{MAC: pool.NIC().MAC(), IP: pool.NIC().IP(), QPN: mQP.QPN(), FirstPSN: 4000, ResetEPSN: mQP.ResetExpectedPSN},
		})
		if err != nil {
			t.Fatal(err)
		}
		cQP.Connect(rdma.RemoteEndpoint{QPN: sw.ComputeQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
		mQP.Connect(rdma.RemoteEndpoint{QPN: sw.PoolQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
		envs = append(envs, &instanceEnv{client: client, pool: pool, region: region})
	}
	eng.Run()
	t.Cleanup(eng.Stop)
	return eng, envs
}

// TestMultiInstanceTDM runs two independent compute/pool pairs through one
// switch: the probe generator must time-division multiplex between them
// (§5.4) and data must stay isolated per instance.
func TestMultiInstanceTDM(t *testing.T) {
	eng, envs := newMultiInstance(t, 2)
	for i, env := range envs {
		th, _ := env.client.Thread(0)
		data := bytes.Repeat([]byte{byte(0xA0 + i)}, 256)
		if err := th.WriteSync(0, data, 1024, 10*time.Second); err != nil {
			t.Fatalf("instance %d write: %v", i, err)
		}
		dest := make([]byte, 256)
		if err := th.ReadSync(0, 1024, dest, 10*time.Second); err != nil {
			t.Fatalf("instance %d read: %v", i, err)
		}
		if !bytes.Equal(dest, data) {
			t.Fatalf("instance %d read wrong data", i)
		}
	}
	// Isolation: each pool holds its own instance's bytes.
	for i, env := range envs {
		got, err := env.pool.Peek(0, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(0xA0+i) {
			t.Fatalf("instance %d pool holds 0x%x", i, got[0])
		}
	}
	st := eng.Stats()
	if st.EntriesFetched != 4 {
		t.Fatalf("entries fetched = %d, want 4 (2 per instance)", st.EntriesFetched)
	}
	if st.ReadsCompleted != 2 || st.WritesCompleted != 2 {
		t.Fatalf("completions: %+v", st)
	}
}

func TestSetupAssignsDistinctQPNs(t *testing.T) {
	fabric := rdma.NewFabric()
	defer fabric.Close()
	eng := New(fabric, wire.MAC{2, 0xEE, 9, 0, 0, 1}, wire.IPv4Addr{10, 9, 9, 1}, DefaultConfig())
	seen := map[uint32]bool{}
	for i := 0; i < 3; i++ {
		sw, err := eng.Setup(&core.Instance{ID: i}, Endpoints{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []uint32{sw.ComputeQPN, sw.PoolQPN} {
			if seen[q] {
				t.Fatalf("QPN %d reused", q)
			}
			seen[q] = true
		}
		if sw.FirstPSN != SwitchFirstPSN {
			t.Fatalf("first PSN = %d", sw.FirstPSN)
		}
	}
}

func TestNonRoCEFramesForwarded(t *testing.T) {
	fabric := rdma.NewFabric()
	defer fabric.Close()
	eng := New(fabric, wire.MAC{2, 0xEE, 9, 0, 0, 2}, wire.IPv4Addr{10, 9, 9, 2}, DefaultConfig())
	// Frame to someone else: passes through untouched.
	frame := make([]byte, 64)
	frame[0] = 0xFF
	out := eng.Process(frame)
	if len(out) != 1 || &out[0][0] != &frame[0] {
		t.Fatal("foreign frame not forwarded unchanged")
	}
	// Garbage addressed to the switch: consumed.
	mac := eng.MAC()
	copy(frame[0:6], mac[:])
	if out := eng.Process(frame); out != nil {
		t.Fatal("garbage to switch not dropped")
	}
	// Short frame: dropped.
	if out := eng.Process([]byte{1, 2}); out != nil {
		t.Fatal("short frame not dropped")
	}
	if eng.Stats().PacketsForwarded != 1 {
		t.Fatalf("forwarded = %d", eng.Stats().PacketsForwarded)
	}
}

// TestStuckOpRecoversWithinBound: the pending maps are scanned once per
// Timeout/4 of engine clock, so an operation whose packet was lost must
// still start a recovery within 1.25 × Timeout (1.5 × asserted, for
// scheduling slack), and the request must then complete with the right data.
func TestStuckOpRecoversWithinBound(t *testing.T) {
	cfg := testConfig()
	cfg.Timeout = 200 * time.Millisecond
	eng, envs := newMultiInstanceCfg(t, 1, cfg)
	th, _ := envs[0].client.Thread(0)
	data := bytes.Repeat([]byte{0x3C}, 256)
	if err := th.WriteSync(0, data, 4096, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Lose the switch's next data read toward the pool. Nothing follows it on
	// that QP, so no host ever NAKs: only the timeout scan can find it.
	poolMAC := envs[0].pool.NIC().MAC()
	var lostAt atomic.Int64
	eng.fabric.SetLossFn(func(frame []byte) bool {
		var p wire.Packet
		if lostAt.Load() != 0 || p.DecodeFromBytes(frame) != nil ||
			p.Eth.Dst != poolMAC || p.BTH.OpCode != wire.OpReadRequest {
			return false
		}
		lostAt.Store(time.Now().UnixNano())
		return true
	})
	dest := make([]byte, 256)
	read := make(chan error, 1)
	go func() { read <- th.ReadSync(0, 4096, dest, 10*time.Second) }()

	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Recoveries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stuck read never triggered a recovery")
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(time.Unix(0, lostAt.Load())); took > cfg.Timeout*3/2 {
		t.Fatalf("recovery began %v after the loss, want within 1.5 x %v", took, cfg.Timeout)
	}
	if st := eng.Stats(); st.NAKs != 0 {
		t.Fatalf("recovery came from a NAK, not the timeout scan: %+v", st)
	}
	if err := <-read; err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(dest, data) {
		t.Fatal("read returned wrong data after recovery")
	}
}

// TestTickFrameNeverPooled: the generator tick is one shared immutable
// buffer that Process consumes ten thousand times a second, and the fabric
// returns consumed frames to its pool. The tick must stay out: a pooled tick
// would be handed out as somebody's output buffer and scribbled over.
func TestTickFrameNeverPooled(t *testing.T) {
	fabric := rdma.NewFabric()
	defer fabric.Close()
	eng := New(fabric, wire.MAC{2, 0xEE, 9, 0, 0, 4}, wire.IPv4Addr{10, 9, 9, 4}, DefaultConfig())
	fabric.SetInterposer(eng)
	for i := 0; i < 10_000; i++ {
		fabric.Send(eng.tick)
	}
	if !bytes.Equal(eng.tick, eng.buildTickFrame()) {
		t.Fatalf("tick frame modified: % x", eng.tick)
	}
	// Had the tick been pooled, it would be the first buffer a class hands out.
	for _, n := range []int{64, 1024} {
		if b := fabric.FrameBuf(n); cap(b) < n || &b[:1][0] == &eng.tick[0] {
			t.Fatalf("the pool handed out the tick frame (cap %d) for a %d-byte request", cap(b), n)
		}
	}
}
