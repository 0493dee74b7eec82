package chaos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cowbird/internal/system"
	"cowbird/internal/wire"
)

func testProfile() Profile {
	return Profile{
		Horizon:    30 * time.Millisecond,
		Events:     8,
		Kinds:      []Kind{KindLossBurst, KindDelaySpike, KindPartition, KindPoolCrash},
		MaxLossPct: 0.3,
		MaxBurst:   8 * time.Millisecond,
		MaxDelay:   50 * time.Microsecond,
		MACs:       []wire.MAC{{2, 1, 0, 0, 0, 1}, {2, 1, 0, 0, 0, 2}, {2, 1, 0, 0, 0, 3}},
		Pools:      2,
	}
}

// TestScheduleDeterminism: the same seed yields the identical schedule; a
// different seed yields a different one. This is the reproducibility
// contract the chaos-smoke CI step depends on.
func TestScheduleDeterminism(t *testing.T) {
	p := testProfile()
	for seed := int64(0); seed < 20; seed++ {
		a := Generate(seed, p)
		b := Generate(seed, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%v\n%v", seed, a, b)
		}
		for i := 1; i < len(a.Events); i++ {
			if a.Events[i].At < a.Events[i-1].At {
				t.Fatalf("seed %d: events not time-ordered", seed)
			}
		}
	}
	if reflect.DeepEqual(Generate(1, p).Events, Generate(2, p).Events) {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

// fastNIC tightens Go-Back-N on the engine→pool QPs so replica-death
// detection costs ~1.5ms instead of the production 50ms, keeping chaos runs
// quick. The override is scoped to the pool path on purpose: applying it
// NIC-wide would let any scheduling stall on the engine↔compute path
// exhaust that QP's retries and wedge the whole deployment.
func fastNIC(c *system.Config) {
	c.PoolRetransmitTimeout = 300 * time.Microsecond
	c.PoolMaxRetries = 5
	c.Spot.ProbeInterval = 2 * time.Microsecond
	c.Spot.PoolHeartbeatInterval = 200 * time.Microsecond
}

func startChaosSystem(t *testing.T, mutate func(*system.Config)) *system.System {
	t.Helper()
	cfg := system.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestChaosSmokeLossBurst replays a fixed-seed loss/delay schedule against a
// default single-pool deployment while the invariant workload runs: every
// acked write readable, no completion lost, none duplicated. Bursts stay
// probabilistic (Pct < 1) and short, so Go-Back-N absorbs them without
// exhausting any healthy QP's retries.
func TestChaosSmokeLossBurst(t *testing.T) {
	const seed = 7
	s := startChaosSystem(t, func(c *system.Config) {
		c.Spot.ProbeInterval = 2 * time.Microsecond
	})
	sched := Generate(seed, Profile{
		Horizon:    25 * time.Millisecond,
		Events:     6,
		Kinds:      []Kind{KindLossBurst, KindDelaySpike},
		MaxLossPct: 0.3,
		MaxBurst:   8 * time.Millisecond,
		MaxDelay:   20 * time.Microsecond,
	})
	inj := NewInjector(Target{Fabric: s.Fabric, Pools: s.Pools}, seed)
	defer inj.Close()
	done := make(chan struct{})
	go func() { inj.Run(sched); close(done) }()

	th, _ := s.Client.Thread(0)
	if err := RunWorkload(th, seed, DefaultWorkloadConfig()); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestChaosSmokePoolCrash replays a fixed pool-crash schedule against a
// two-replica deployment: the primary dies mid-workload and the invariants
// must still hold through the transparent failover.
func TestChaosSmokePoolCrash(t *testing.T) {
	const seed = 11
	s := startChaosSystem(t, func(c *system.Config) {
		c.PoolReplicas = 2
		fastNIC(c)
	})
	sched := Schedule{Seed: seed, Events: []Event{
		{At: 3 * time.Millisecond, Kind: KindPoolCrash, Pool: 0},
	}}
	inj := NewInjector(Target{Fabric: s.Fabric, Pools: s.Pools}, seed)
	defer inj.Close()
	done := make(chan struct{})
	go func() { inj.Run(sched); close(done) }()

	th, _ := s.Client.Thread(0)
	if err := RunWorkload(th, seed, DefaultWorkloadConfig()); err != nil {
		t.Fatal(err)
	}
	<-done
	// Detection may lag the crash by a heartbeat interval plus the pool QPs'
	// retry budget; the workload can finish inside that window.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Spot.PoolDegraded() {
		if time.Now().After(deadline) {
			t.Fatal("primary crash went undetected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosSmokeAsymPartition replays a fixed-seed schedule of ONE-WAY
// partitions (plus loss bursts) on the engine↔compute path of a two-replica
// deployment: requests flowing while acks vanish, and vice versa. Bursts
// stay far below the 50ms default retry budget so Go-Back-N absorbs every
// sever; the invariants must hold throughout, and the replicas must be
// byte-identical afterwards.
func TestChaosSmokeAsymPartition(t *testing.T) {
	const seed = 13
	s := startChaosSystem(t, func(c *system.Config) {
		c.PoolReplicas = 2
		c.Spot.ProbeInterval = 2 * time.Microsecond
	})
	sched := Generate(seed, Profile{
		Horizon:    25 * time.Millisecond,
		Events:     6,
		Kinds:      []Kind{KindAsymPartition, KindLossBurst},
		MaxLossPct: 0.2,
		MaxBurst:   6 * time.Millisecond,
		MACs:       []wire.MAC{system.EngineMAC(), system.ComputeMAC()},
	})
	inj := NewInjector(Target{Fabric: s.Fabric, Pools: s.Pools}, seed)
	defer inj.Close()
	done := make(chan struct{})
	go func() { inj.Run(sched); close(done) }()

	th, _ := s.Client.Thread(0)
	if err := RunWorkload(th, seed, DefaultWorkloadConfig()); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := CheckReplicas(s.Pools, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSmokeZombiePrimary isolates the engine from the compute node and
// both pools mid-workload — alive, never killed — then heals. With no
// standby in this deployment the epoch never advances, so the rightful
// primary's retransmissions land when the partition lifts and the workload
// completes with zero losses or duplicates; the engine must NOT demote
// itself (nothing fenced it), and the replicas must converge.
func TestChaosSmokeZombiePrimary(t *testing.T) {
	const seed = 17
	s := startChaosSystem(t, func(c *system.Config) {
		c.PoolReplicas = 2
		c.Spot.ProbeInterval = 2 * time.Microsecond
	})
	sched := Schedule{Seed: seed, Events: []Event{{
		At: 3 * time.Millisecond, Kind: KindZombiePrimary, Dur: 6 * time.Millisecond,
		Src:   system.EngineMAC(),
		Peers: []wire.MAC{system.ComputeMAC(), system.PoolMAC(0), system.PoolMAC(1)},
	}}}
	inj := NewInjector(Target{Fabric: s.Fabric, Pools: s.Pools}, seed)
	defer inj.Close()
	done := make(chan struct{})
	go func() { inj.Run(sched); close(done) }()

	th, _ := s.Client.Thread(0)
	if err := RunWorkload(th, seed, DefaultWorkloadConfig()); err != nil {
		t.Fatal(err)
	}
	<-done
	if s.Spot.Fenced() {
		t.Fatal("engine demoted itself after an isolation with no competing promotion")
	}
	if err := CheckReplicas(s.Pools, 0, 4<<20); err != nil {
		t.Fatal(err)
	}
}

// TestPoolFailoverProperty is the ISSUE's acceptance property: with
// PoolReplicas=2, killing the primary at an arbitrary seeded point of a
// seeded workload never loses an acked write, a completion, or delivers a
// duplicate — across at least 50 seeds. PR 9 widens the schedule space: each
// seed also replays a seeded burst of one-way engine↔compute partitions
// while the crash/failover is in flight, so the property now covers the
// asymmetric-loss × replica-failover product.
func TestPoolFailoverProperty(t *testing.T) {
	const seeds = 50
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := startChaosSystem(t, func(c *system.Config) {
				c.PoolReplicas = 2
				fastNIC(c)
			})
			cfg := DefaultWorkloadConfig()
			cfg.Ops = 200
			killAt := rand.New(rand.NewSource(seed)).Intn(cfg.Ops)
			cfg.OnOp = func(i int) {
				if i == killAt {
					s.Pools[0].Crash()
				}
			}
			// Asymmetric severs ride the engine↔compute path only: the pool
			// path runs fastNIC's ~1.5ms retry budget for quick crash
			// detection, and a partition there would turn into a spurious
			// replica death instead of a transient fault.
			sched := Generate(seed, Profile{
				Horizon:  20 * time.Millisecond,
				Events:   4,
				Kinds:    []Kind{KindAsymPartition},
				MaxBurst: 5 * time.Millisecond,
				MACs:     []wire.MAC{system.EngineMAC(), system.ComputeMAC()},
			})
			inj := NewInjector(Target{Fabric: s.Fabric, Pools: s.Pools}, seed)
			defer inj.Close()
			done := make(chan struct{})
			go func() { inj.Run(sched); close(done) }()

			th, _ := s.Client.Thread(0)
			if err := RunWorkload(th, seed, cfg); err != nil {
				t.Fatalf("killAt=%d: %v", killAt, err)
			}
			<-done
			t.Logf("retry path: engine %+v, compute %+v", s.Spot.NIC().Stats(), s.Compute.Stats())
		})
	}
}
