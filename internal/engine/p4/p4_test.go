package p4

import (
	"bytes"
	"errors"
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
// state Process keeps (2 sALUs more than the paper's one timeout register:
// a progress stamp per queue, each instance's state and drain deadline, and
// its resync backlog).
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
	if r.SALUs != 11+1+2 {
		t.Errorf("sALU = %d, want 14 (paper 11 + phase4_open + recovery state)", r.SALUs)
	}
	if r.SRAMKB < 1424*0.98 || r.SRAMKB > 1424*1.02 {
		t.Errorf("SRAM = %.0f KB, want within 2%% of the paper's 1424", r.SRAMKB)
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
	client  *core.Client
	compute *rdma.NIC
	pool    *memnode.Node
	region  core.RegionInfo
}

// testConfig is the engine configuration the wired-up tests start from.
func testConfig() Config {
	return Config{
		ProbeInterval: 2 * time.Microsecond,
		MTU:           1024,
	}
}

// newMultiInstance wires n one-queue instances onto one switch engine (§5.4).
func newMultiInstance(t *testing.T, n int) (*Engine, []*instanceEnv) {
	return newMultiInstanceCfg(t, n, 1, testConfig())
}

// newMultiInstanceCfg is newMultiInstance with the queues per instance
// (client threads) and the engine configuration given.
func newMultiInstanceCfg(t testing.TB, n, threads int, cfg Config) (*Engine, []*instanceEnv) {
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
			Threads: threads,
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
			Compute: Endpoint{MAC: compute.MAC(), IP: compute.IP(), QPN: cQP.QPN(), ResetEPSN: cQP.ResetExpectedPSN},
			Pool:    Endpoint{MAC: pool.NIC().MAC(), IP: pool.NIC().IP(), QPN: mQP.QPN(), ResetEPSN: mQP.ResetExpectedPSN},
		})
		if err != nil {
			t.Fatal(err)
		}
		cQP.Connect(rdma.RemoteEndpoint{QPN: sw.ComputeQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
		mQP.Connect(rdma.RemoteEndpoint{QPN: sw.PoolQPN, MAC: eng.MAC(), IP: eng.IP()}, sw.FirstPSN)
		envs = append(envs, &instanceEnv{client: client, compute: compute, pool: pool, region: region})
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

// lossyEngine puts a drop predicate in front of the engine. The fabric's loss
// predicate sees only what the switch emits, since a host's frame to the
// switch is consumed by the interposer, so a test that loses frames on their
// way in installs this as the interposer.
type lossyEngine struct {
	*Engine
	drop func(frame []byte) bool
}

func (l lossyEngine) Process(frame []byte) [][]byte {
	if l.drop(frame) {
		return nil
	}
	return l.Engine.Process(frame)
}

// loseOnce drops the first frame, into or out of eng, that lose matches, and
// returns where the wall time of that loss will be stored. The predicate runs
// under the fabric's forwarding lock in both directions, so it may keep state
// without a lock of its own.
func loseOnce(eng *Engine, lose func(p *wire.Packet) bool) *atomic.Int64 {
	lostAt := new(atomic.Int64)
	var p wire.Packet
	drop := func(frame []byte) bool {
		if lostAt.Load() != 0 || p.DecodeFromBytes(frame) != nil || !lose(&p) {
			return false
		}
		lostAt.Store(time.Now().UnixNano())
		return true
	}
	eng.fabric.SetInterposer(lossyEngine{eng, drop})
	eng.fabric.SetLossFn(drop)
	return lostAt
}

// ackOf matches the host's ACK of the first switch write to it that write
// matches.
func ackOf(host wire.MAC, write func(p *wire.Packet) bool) func(p *wire.Packet) bool {
	var psn uint32
	seen := false
	return func(p *wire.Packet) bool {
		switch {
		case !seen && p.Eth.Dst == host && p.BTH.OpCode.IsWrite() && write(p):
			psn, seen = p.BTH.PSN, true
		case seen && p.Eth.Src == host && p.BTH.OpCode == wire.OpAcknowledge && p.BTH.PSN == psn:
			return true
		}
		return false
	}
}

const stuckLen = 256

// stuckOld is the block the stuck operation reads, stuckData what a stuck
// write puts there.
var stuckOld, stuckData = bytes.Repeat([]byte{0x3C}, stuckLen), bytes.Repeat([]byte{0xC3}, stuckLen)

// stuckRows are the frames TestStuckOpRecoversWithinBound loses, one per
// row, and what the stuck operation is.
var stuckRows = []struct {
	name  string
	lose  func(env *instanceEnv) func(p *wire.Packet) bool
	write bool // the stuck operation is a write, else a read
	idle  bool // the operation is issued only after the recovery
	peer  bool // queue 1 of the same instance runs a closed loop throughout
}{
	{name: "switch→pool read request", lose: func(env *instanceEnv) func(p *wire.Packet) bool {
		return func(p *wire.Packet) bool {
			return p.Eth.Dst == env.pool.NIC().MAC() && p.BTH.OpCode == wire.OpReadRequest
		}
	}},
	{name: "pool→switch read response", lose: func(env *instanceEnv) func(p *wire.Packet) bool {
		return func(p *wire.Packet) bool {
			return p.Eth.Src == env.pool.NIC().MAC() && p.BTH.OpCode.IsReadResponse()
		}
	}},
	{name: "compute→switch probe response on an idle queue", idle: true, lose: func(env *instanceEnv) func(p *wire.Packet) bool {
		return func(p *wire.Packet) bool {
			return p.Eth.Src == env.compute.MAC() && p.BTH.OpCode.IsReadResponse() && len(p.Payload) == rings.GreenSize
		}
	}},
	{name: "compute→switch metadata response", lose: func(env *instanceEnv) func(p *wire.Packet) bool {
		return func(p *wire.Packet) bool {
			return p.Eth.Src == env.compute.MAC() && p.BTH.OpCode.IsReadResponse() && len(p.Payload) == rings.MetaEntrySize
		}
	}},
	{name: "pool→switch write ACK", write: true, lose: func(env *instanceEnv) func(p *wire.Packet) bool {
		return func(p *wire.Packet) bool {
			return p.Eth.Src == env.pool.NIC().MAC() && p.BTH.OpCode == wire.OpAcknowledge
		}
	}},
	{name: "compute→switch ACK of a response write", lose: func(env *instanceEnv) func(p *wire.Packet) bool {
		return ackOf(env.compute.MAC(), func(p *wire.Packet) bool { return len(p.Payload) == stuckLen })
	}},
	// Queue 1's completions must not hide queue 0's stuck read, as one
	// stamp per instance would.
	{name: "two queues, queue 0's pool read response", peer: true, lose: func(env *instanceEnv) func(p *wire.Packet) bool {
		return func(p *wire.Packet) bool {
			return p.Eth.Src == env.pool.NIC().MAC() && p.BTH.OpCode.IsReadResponse() &&
				len(p.Payload) > 0 && p.Payload[0] == stuckOld[0]
		}
	}},
}

// TestStuckOpRecoversWithinBound loses, in each row, one frame that only the
// data-plane timeout can see: the switch NAKs nothing, and nothing follows a
// lost frame toward a host on its QP, so no host NAKs either.
// Every queue's progress stamp moves at least once per probe while it has
// nothing outstanding, so the stuck queue's stamp is at most one probe older
// than the loss, and recovery must start within 1.5 × the queue's timeout
// of it (scheduling slack included). On the wall clock that timeout is only
// known to be at most rdma.MaxRTO; TestStuckOpDetectedWithinTimeout holds
// each row to the measured one on virtual time. Then the operation must
// complete with the right data, and the resync must restamp every queue:
// one more MaxRTO passes without a second recovery.
func TestStuckOpRecoversWithinBound(t *testing.T) {
	for _, row := range stuckRows {
		t.Run(row.name, func(t *testing.T) {
			cfg := testConfig()
			threads := 1
			if row.peer {
				threads = 2
			}
			eng, envs := newMultiInstanceCfg(t, 1, threads, cfg)
			env := envs[0]
			th, _ := env.client.Thread(0)
			if err := th.WriteSync(0, stuckOld, 4096, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			peerReads := new(atomic.Int64)
			if row.peer {
				peerReads = startPeerLoop(t, env)
			}

			lostAt := loseOnce(eng, row.lose(env))
			op := func() error { return stuckOp(th, row.write) }
			done := make(chan error, 1)
			if !row.idle {
				go func() { done <- op() }()
			}
			armed := peerReads.Load()

			deadline := time.Now().Add(10 * time.Second)
			for eng.Stats().Recoveries == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the stuck exchange never triggered a recovery")
				}
				time.Sleep(time.Millisecond)
			}
			if lostAt.Load() == 0 {
				t.Fatal("a recovery began before anything was lost")
			}
			if took := time.Since(time.Unix(0, lostAt.Load())); took > rdma.MaxRTO*3/2 {
				t.Fatalf("recovery began %v after the loss, want within 1.5 x %v", took, rdma.MaxRTO)
			}
			if st := eng.Stats(); st.NAKs != 0 {
				t.Fatalf("recovery came from a NAK, not the timeout: %+v", st)
			}
			if row.idle {
				go func() { done <- op() }()
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// A timeout of tens of µs can expire before queue 1 completes a
			// read on a loaded host, so here queue 1 need only have run
			// while queue 0's read was stuck or recovering;
			// TestStuckOpDetectedWithinTimeout holds it to completing reads
			// between the loss and the drain.
			if row.peer && peerReads.Load() == armed {
				t.Fatal("queue 1 made no progress while queue 0's read was stuck or recovering: the row tests nothing")
			}
			time.Sleep(rdma.MaxRTO)
			if n := eng.Stats().Recoveries; n != 1 {
				t.Fatalf("%d recoveries, want 1: the resync did not restamp every queue", n)
			}
		})
	}
}

// stuckOp is a stuck row's operation on th: a read of the block at 4096,
// after a write of stuckData over it for a write row, checked against what
// the block holds.
func stuckOp(th *core.Thread, write bool) error {
	want := stuckOld
	if write {
		if err := th.WriteSync(0, stuckData, 4096, 10*time.Second); err != nil {
			return err
		}
		want = stuckData
	}
	dest := make([]byte, stuckLen)
	if err := th.ReadSync(0, 4096, dest, 10*time.Second); err != nil {
		return err
	}
	if !bytes.Equal(dest, want) {
		return errors.New("wrong data after recovery")
	}
	return nil
}

// startPeerLoop runs queue 1 of env's instance as a closed loop of reads of a
// block of its own, checking every read, until the test ends; it returns the
// loop's read count once the loop is under way.
func startPeerLoop(t testing.TB, env *instanceEnv) *atomic.Int64 {
	peer, _ := env.client.Thread(1)
	block := bytes.Repeat([]byte{0x5A}, 256)
	if err := peer.WriteSync(0, block, 8192, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	reads := new(atomic.Int64)
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		dest := make([]byte, len(block))
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := peer.ReadSync(0, 8192, dest, 10*time.Second); err != nil {
				done <- err
				return
			}
			if !bytes.Equal(dest, block) {
				done <- errors.New("queue 1 read wrong data")
				return
			}
			reads.Add(1)
		}
	}()
	t.Cleanup(func() {
		close(stop)
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	for reads.Load() < 16 {
		time.Sleep(time.Millisecond)
	}
	return reads
}

// TestDrainIgnoresBackoff: a queue whose own probes were lost has backed
// off, but the drain waits out the other queues' exchanges, so it is sized
// from the queues' timeouts without backoff; and the backed-off queue's next
// probe round trip clears its backoff. Were either not so, an idle queue at
// MaxRTO would stretch every drain of its instance to MaxRTO.
func TestDrainIgnoresBackoff(t *testing.T) {
	idle, busy := &queueState{}, &queueState{}
	idle.rto.Observe(100 * time.Microsecond)
	busy.rto.Observe(40 * time.Microsecond)
	for i := 0; i < 20; i++ {
		idle.rto.Expire()
	}
	if idle.timeout() != rdma.MaxRTO {
		t.Fatalf("idle queue's timeout %v, want MaxRTO", idle.timeout())
	}
	e := &Engine{}
	in := &inst{queues: []*queueState{busy, idle}}
	e.beginRecovery(in)
	if got, want := in.drainUntil.Sub(e.now), 300*time.Microsecond; got != want {
		t.Fatalf("drain %v, want the idle queue's timeout without backoff, %v", got, want)
	}
	idle.rto.Observe(100 * time.Microsecond)
	if got, want := idle.timeout(), 250*time.Microsecond; got != want {
		t.Fatalf("timeout after a probe round trip %v, want %v", got, want)
	}
}

// TestLostRedAckNeedsNoRecovery: nothing waits on a red write's ACK, so
// losing one must start no recovery, and later operations complete.
func TestLostRedAckNeedsNoRecovery(t *testing.T) {
	cfg := testConfig()
	eng, envs := newMultiInstanceCfg(t, 1, 1, cfg)
	env := envs[0]
	th, _ := env.client.Thread(0)
	lostAt := loseOnce(eng, ackOf(env.compute.MAC(), func(p *wire.Packet) bool { return len(p.Payload) == rings.RedSize }))
	data := bytes.Repeat([]byte{0x77}, 256)
	if err := th.WriteSync(0, data, 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * rdma.MaxRTO)
	if lostAt.Load() == 0 {
		t.Fatal("no red write's ACK was lost")
	}
	if st := eng.Stats(); st.Recoveries != 0 {
		t.Fatalf("a lost red-write ACK started %d recoveries: %+v", st.Recoveries, st)
	}
	dest := make([]byte, len(data))
	for i := 1; i <= 8; i++ {
		data[0] = byte(i)
		if err := th.WriteSync(0, data, uint64(i)*256, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := th.ReadSync(0, uint64(i)*256, dest, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dest, data) {
			t.Fatalf("operation %d read wrong data", i)
		}
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
